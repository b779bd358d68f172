// Package store persists discovery-engine job state so that a
// redsserver restart does not discard submitted work. The engine mirrors
// every job lifecycle transition (and every finished result) into a
// Store; on boot it lists the store back and re-enqueues the jobs that
// never ran.
//
// Two implementations ship with the package:
//
//   - Mem keeps everything in process memory — the engine's historical
//     behavior, used when no -store.dir is configured.
//   - FS is an append-only JSON-lines file store with a write-ahead log,
//     periodic snapshot+compaction, and crash-safe replay on open.
//
// The store is deliberately decoupled from the engine's types: jobs and
// results travel as opaque json.RawMessage payloads plus the few fields
// the store itself needs (status, timestamps) to order listings and
// sweep expired records. That keeps the dependency arrow pointing from
// internal/engine to internal/engine/store only.
package store

import (
	"encoding/json"
	"time"
)

// Record is the persisted form of one job. Request is the engine's
// wire-format request (including any inline dataset) so a recovered
// pending job can be re-run with full fidelity; Status and the
// timestamps are duplicated out of the payload because the store sorts
// listings by submission time and sweeps on finish time without wanting
// to understand engine JSON.
type Record struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Owner is the authenticated client that submitted the job ("" when
	// admission control is off), persisted so per-client job listings
	// survive restarts.
	Owner string `json:"owner,omitempty"`
	// Error is the failure reason of a failed job.
	Error string `json:"error,omitempty"`
	// SubmittedAt orders List output. StartedAt and FinishedAt are zero
	// until the job reaches the corresponding state; a non-zero
	// FinishedAt marks the record terminal and therefore sweepable.
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
	// Request is the engine-encoded job request.
	Request json.RawMessage `json:"request,omitempty"`
}

// Terminal reports whether the record reached a final state. The store
// only relies on FinishedAt (set exactly when a job becomes done, failed
// or canceled), not on parsing Status.
func (r Record) Terminal() bool { return !r.FinishedAt.IsZero() }

// Store is the durability interface the engine writes through. All
// methods must be safe for concurrent use. PutJob is a record upsert
// (last write wins) with one merge rule: a nil Request preserves the
// previously stored request. The request can be large (inline datasets)
// and is immutable after submission, so status transitions upsert with
// a nil Request and stay cheap; the rule is deterministic, so
// write-ahead-log replay remains idempotent. Implementations must
// return copies or immutable data from read methods; callers may
// retain what they get back.
type Store interface {
	// PutJob inserts or replaces the record for rec.ID; a nil
	// rec.Request keeps the stored request of an existing record.
	PutJob(rec Record) error
	// PutResult attaches the encoded final result to a job id. Results
	// are stored separately from records so status upserts stay cheap.
	PutResult(id string, result json.RawMessage) error
	// GetResult returns the stored result payload, ok=false when none
	// exists.
	GetResult(id string) (json.RawMessage, bool, error)
	// List returns every record ordered by SubmittedAt (ties by ID).
	List() ([]Record, error)
	// Delete removes a record and its result. Deleting an unknown id is
	// not an error.
	Delete(id string) error
	// Sweep deletes every terminal record whose FinishedAt is before
	// cutoff, with its result, and returns the deleted ids. Pending and
	// running records are never swept.
	Sweep(cutoff time.Time) ([]string, error)
	// PutMeta stores a small engine metadata payload under a key in a
	// namespace separate from jobs and results (List/Delete/Sweep never
	// touch it). The engine uses it for the job-ID high-water mark, so
	// ids are never reused even after every record has been swept.
	PutMeta(key string, value json.RawMessage) error
	// GetMeta returns a metadata payload, ok=false when absent.
	GetMeta(key string) (json.RawMessage, bool, error)
	// PutCheckpoint stores the engine-encoded execution checkpoint of a
	// job; a nil or empty payload deletes it. Checkpoints live and die
	// with their job: Delete and Sweep remove them alongside the record,
	// and List never returns them (they carry the job's pseudo-labels
	// and only the job's own re-execution wants them).
	PutCheckpoint(id string, cp json.RawMessage) error
	// GetCheckpoint returns the stored checkpoint payload, ok=false when
	// none exists.
	GetCheckpoint(id string) (json.RawMessage, bool, error)
	// Close releases the store. For FS it compacts the write-ahead log
	// into the snapshot first; for Mem it is a no-op.
	Close() error
}
