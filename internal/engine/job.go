// Package engine is the concurrent scenario-discovery engine behind
// cmd/redsserver and cmd/redsgateway, split into two layers:
//
//   - the orchestration layer (Engine): a job queue plus a bounded
//     worker pool with lifecycle tracking, store persistence and TTL
//     GC — everything around running a request;
//   - the execution layer (the Executor interface): actually running
//     one request end to end. LocalExecutor runs whole REDS pipelines
//     in-process (metamodel training → parallel pseudo-labeling →
//     subgroup discovery) with per-stage progress, cooperative
//     cancellation, a size-weighted LRU metamodel cache keyed by
//     dataset content, and multi-variant fan-out (several metamodel
//     families × SD algorithms per request) ranked by scenario
//     quality. RemoteExecutor runs the same contract on another
//     process through the internal execution API (ExecServer), and
//     internal/cluster.Dispatcher consistent-hash-routes it across a
//     fleet of workers.
//
// # Durability
//
// Every job lifecycle transition and every finished result is mirrored
// into a store.Store (see internal/engine/store). With the default
// in-memory store the engine behaves as a purely in-process service;
// with a file store, New recovers the previous process's state: done
// results become servable again, jobs that never started are
// re-enqueued, and jobs orphaned mid-run by a crash are marked failed
// with a restart reason. A TTL sweeper garbage-collects terminal jobs
// past their retention window from both the store and the in-memory
// index, bounding growth in long-running deployments.
//
// # Job lifecycle
//
//	pending ──► running ──► done | failed | canceled
//	   │                               ▲
//	   └── cancel while queued ────────┘
//
// A graceful Close leaves queued jobs pending (so a durable restart
// resumes them) and ends running jobs canceled; a crash leaves running
// jobs in the store as running, which the next New reports as orphaned.
package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/reds-go/reds/internal/box"
	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/engine/store"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/metrics"
)

// JobID identifies a submitted job.
type JobID string

// Status is the lifecycle state of a job.
type Status string

// Job lifecycle: Pending (queued) → Running → one of Done, Failed,
// Canceled. Cancellation of a still-queued job skips Running.
const (
	StatusPending  Status = "pending"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Request describes one discovery job. The input data is either a
// registered simulation function (Function + N simulations) or an inline
// Dataset; exactly one must be set. Metamodels and SD name the variant
// grid: every combination runs as a concurrent sub-task and the result
// ranks them by quality on the real (simulated) examples.
type Request struct {
	// Function is a funcs registry name ("morris", "borehole", ...).
	Function string `json:"function,omitempty"`
	// N is the number of simulations drawn from Function (default 400).
	N int `json:"n,omitempty"`
	// Dataset is an inline labeled dataset, alternative to Function.
	Dataset *dataset.Dataset `json:"dataset,omitempty"`
	// L is the pseudo-label sample size (default 10000).
	L int `json:"l,omitempty"`
	// Metamodels lists metamodel families to try: "rf", "xgb", "svm"
	// (default ["rf"]).
	Metamodels []string `json:"metamodels,omitempty"`
	// SD lists subgroup-discovery algorithms to try: "prim", "bumping",
	// "bi" (default ["prim"]).
	SD []string `json:"sd,omitempty"`
	// Sampler names the design for training and pseudo-label points:
	// "lhs" (default), "uniform", "halton", "logitnormal", "mixed".
	Sampler string `json:"sampler,omitempty"`
	// Seed makes the job deterministic (default 1).
	Seed int64 `json:"seed,omitempty"`
	// ProbLabels selects the modified REDS of Section 6.1 (probability
	// pseudo-labels instead of thresholded ones).
	ProbLabels bool `json:"prob_labels,omitempty"`
	// Tuned enables cross-validated hyperparameter search for each
	// metamodel (slower; off by default).
	Tuned bool `json:"tuned,omitempty"`
	// LabelKernel selects the pseudo-labeling kernel: "full" (default)
	// runs the trained ensemble's batch path; "distilled" first distills
	// the ensemble into a compact rule set (internal/ruleset) and labels
	// with that — automatically falling back to the full ensemble when
	// the family is not distillable (svm) or the distillation's measured
	// holdout fidelity misses the threshold. The kernel actually used is
	// reported per variant (VariantResult.LabelKernel).
	LabelKernel string `json:"label_kernel,omitempty"`
	// DistillFidelity overrides the executor's fidelity threshold for
	// this job: a distilled kernel whose holdout label agreement with
	// the parent falls below it is discarded in favor of the full
	// ensemble. 0 keeps the executor default (0.99).
	DistillFidelity float64 `json:"distill_fidelity,omitempty"`
	// DistillMaxRules caps the distilled rule budget (0 = unbounded).
	// Mostly a test lever: a tiny budget deterministically forces the
	// fidelity fallback.
	DistillMaxRules int `json:"distill_max_rules,omitempty"`
	// TrainMode selects how tree-ensemble metamodels train: "exact"
	// (default) runs the exhaustive-cut path; "binned" runs the
	// histogram-binned fast path (features quantized once per dataset,
	// splits swept over bin histograms, tuning folds sharing one
	// quantization) — automatically falling back to exact when the
	// family has no binned path (svm) or a quick holdout quality gate
	// misses the threshold. The mode actually used is reported per
	// variant (VariantResult.TrainMode). Empty keeps the executor
	// default.
	TrainMode string `json:"train_mode,omitempty"`
	// TrainBins caps the per-feature quantile bin budget of binned
	// training (2..256; 0 keeps the default, 64).
	TrainBins int `json:"train_bins,omitempty"`
	// TrainQuality overrides the executor's holdout accuracy threshold
	// the binned gate model must reach before the fast path trains a
	// variant; below it the family falls back to exact training. 0 keeps
	// the executor default (0.55).
	TrainQuality float64 `json:"train_quality,omitempty"`
	// DeadlineSeconds bounds the job's wall-clock execution time: a job
	// still running this long after execution starts fails with a
	// deadline reason. 0 means no deadline (or the server's
	// -job.max-runtime default when admission control is configured).
	// The budget is checkpoint-aware: a resumed job inherits what its
	// earlier executions already spent (Checkpoint.ElapsedSeconds).
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// Checkpoint resumes the request from a partially executed state:
	// the executor reuses the finished variants and skips the stages the
	// snapshot proves complete. It is set by the infrastructure — the
	// dispatcher on failover, the engine when re-running a recovered job
	// — never by clients; the public API strips it from submissions. It
	// does not contribute to ShardKey (the same job routes to the same
	// worker whether or not it resumes).
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
}

// Validate checks the request against the function registry and the
// variant grids before the job is accepted.
func (r *Request) Validate() error {
	switch {
	case r.Function == "" && r.Dataset == nil:
		return fmt.Errorf("engine: request needs a function name or an inline dataset")
	case r.Function != "" && r.Dataset != nil:
		return fmt.Errorf("engine: request has both a function and an inline dataset; pick one")
	case r.Function != "":
		if _, err := funcs.Get(r.Function); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
	default:
		if r.Dataset.N() == 0 {
			return fmt.Errorf("engine: inline dataset is empty")
		}
		if r.Dataset.M() == 0 {
			return fmt.Errorf("engine: inline dataset has no input columns")
		}
		// NaN/Inf parse fine from CSV but poison discovery and are not
		// JSON-encodable, so job snapshots would fail to serialize.
		for i, row := range r.Dataset.X {
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("engine: inline dataset has non-finite value at row %d col %d", i, j)
				}
			}
		}
		for i, y := range r.Dataset.Y {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				return fmt.Errorf("engine: inline dataset has non-finite label at row %d", i)
			}
		}
	}
	if r.N < 0 || r.L < 0 {
		return fmt.Errorf("engine: negative n or l")
	}
	for _, name := range r.Metamodels {
		if !knownMetamodel(name) {
			return fmt.Errorf("engine: unknown metamodel %q (want rf, xgb or svm)", name)
		}
	}
	for _, name := range r.SD {
		if !knownSD(name) {
			return fmt.Errorf("engine: unknown SD algorithm %q (want prim, bumping or bi)", name)
		}
	}
	if _, err := samplerByName(r.Sampler); err != nil {
		return err
	}
	switch r.LabelKernel {
	case "", "full", "distilled":
	default:
		return fmt.Errorf("engine: unknown label kernel %q (want full or distilled)", r.LabelKernel)
	}
	if r.DistillFidelity < 0 || r.DistillFidelity > 1 || math.IsNaN(r.DistillFidelity) {
		return fmt.Errorf("engine: distill_fidelity %v out of [0,1]", r.DistillFidelity)
	}
	if r.DistillMaxRules < 0 {
		return fmt.Errorf("engine: negative distill_max_rules")
	}
	switch r.TrainMode {
	case "", "exact", "binned":
	default:
		return fmt.Errorf("engine: unknown train mode %q (want exact or binned)", r.TrainMode)
	}
	if r.TrainBins != 0 && (r.TrainBins < 2 || r.TrainBins > dataset.MaxBins) {
		return fmt.Errorf("engine: train_bins %d out of [2,%d]", r.TrainBins, dataset.MaxBins)
	}
	if r.TrainQuality < 0 || r.TrainQuality > 1 || math.IsNaN(r.TrainQuality) {
		return fmt.Errorf("engine: train_quality %v out of [0,1]", r.TrainQuality)
	}
	if r.DeadlineSeconds < 0 || math.IsNaN(r.DeadlineSeconds) || math.IsInf(r.DeadlineSeconds, 0) {
		return fmt.Errorf("engine: deadline_seconds %v must be a non-negative finite number", r.DeadlineSeconds)
	}
	return nil
}

// VariantResult is the outcome of one metamodel × SD combination.
type VariantResult struct {
	// Metamodel and SD identify the combination.
	Metamodel string `json:"metamodel"`
	SD        string `json:"sd"`
	// Box is the selected scenario; Rule is its IF-THEN rendering.
	Box  *box.Box `json:"box,omitempty"`
	Rule string   `json:"rule,omitempty"`
	// Precision, Recall and WRAcc evaluate Box on the real (simulated)
	// examples; PRAUC integrates the whole trajectory.
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	WRAcc     float64 `json:"wracc"`
	PRAUC     float64 `json:"pr_auc"`
	// Trajectory is the peeling trajectory in PR coordinates.
	Trajectory []metrics.PRPoint `json:"trajectory,omitempty"`
	// CacheHit reports whether the metamodel came from the engine cache.
	CacheHit bool `json:"cache_hit"`
	// LabelCacheHit reports whether the pseudo-labeled dataset came
	// from the engine's label cache (another variant of the same family
	// — or an earlier job — had already labeled it).
	LabelCacheHit bool `json:"label_cache_hit"`
	// LabelKernel is the pseudo-labeling kernel that actually ran:
	// "distilled" (the compact rule set) or "full" (the trained
	// ensemble). A request that asked for "distilled" can still report
	// "full" here — see FallbackReason.
	LabelKernel string `json:"label_kernel,omitempty"`
	// LabelFidelity is the distilled kernel's measured holdout label
	// agreement with the parent ensemble. Only set when a distillation
	// ran (even one that fell back).
	LabelFidelity float64 `json:"label_fidelity,omitempty"`
	// FallbackReason explains why a requested distilled kernel was not
	// used: "unsupported" (the family has no tree structure, e.g. svm)
	// or "fidelity <measured> below threshold <t>".
	FallbackReason string `json:"fallback_reason,omitempty"`
	// Ruleset is the distilled rule set's canonical JSON export
	// (ruleset.Export), present when the variant labeled with the
	// distilled kernel. GET /v1/jobs/{id}/rules serves it; the /result
	// payload strips it to stay small.
	Ruleset json.RawMessage `json:"ruleset,omitempty"`
	// TrainMode is the training mode that actually ran: "binned" (the
	// histogram fast path) or "exact". A request that asked for "binned"
	// can still report "exact" here — see TrainFallbackReason.
	TrainMode string `json:"train_mode,omitempty"`
	// TrainQuality is the binned gate model's measured holdout accuracy.
	// Only set when the gate ran (even when it forced a fallback).
	TrainQuality float64 `json:"train_quality,omitempty"`
	// TrainFallbackReason explains why a requested binned mode was not
	// used: "unsupported" (the family has no binned path, e.g. svm) or
	// "quality <measured> below threshold <t>".
	TrainFallbackReason string `json:"train_fallback_reason,omitempty"`
	// Resumed reports that the variant was not re-run at all: a
	// checkpoint from an earlier execution already carried its finished
	// result.
	Resumed bool `json:"resumed,omitempty"`
	// Error is set when this variant failed; the job can still succeed
	// on the surviving variants.
	Error string `json:"error,omitempty"`
}

// Result is the final payload of a finished job: the winning variant
// plus every variant for comparison, ranked best-first.
type Result struct {
	// Best is the highest-ranked variant (by WRAcc, ties by PR AUC).
	Best VariantResult `json:"best"`
	// Variants holds all combinations, ranked best-first with failed
	// variants last.
	Variants []VariantResult `json:"variants"`
	// TrainN and TrainPositiveShare describe the real dataset the
	// variants were validated on.
	TrainN             int     `json:"train_n"`
	TrainPositiveShare float64 `json:"train_positive_share"`
	// DatasetHash is the content hash used as the cache key prefix.
	DatasetHash string `json:"dataset_hash"`
	// ElapsedSeconds is the wall-clock job duration.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// Snapshot is a point-in-time view of a job, safe to serialize.
type Snapshot struct {
	ID     JobID  `json:"id"`
	Status Status `json:"status"`
	// Request echoes the submission, except that an inline dataset is
	// summarized by DatasetN/DatasetM instead of re-serialized on every
	// status poll.
	Request  Request `json:"request"`
	DatasetN int     `json:"dataset_n,omitempty"`
	DatasetM int     `json:"dataset_m,omitempty"`
	// Stage is the most recently entered pipeline stage across the
	// job's variants ("train", "sample", "label", "discover").
	Stage string `json:"stage,omitempty"`
	// LabelDone / LabelTotal aggregate pseudo-labeling progress over
	// all variants.
	LabelDone  int `json:"label_done"`
	LabelTotal int `json:"label_total"`
	// VariantsDone / VariantsTotal count finished variant sub-tasks.
	VariantsDone  int `json:"variants_done"`
	VariantsTotal int `json:"variants_total"`
	// RequestID correlates this job across processes and log streams:
	// the submitting client's X-Request-Id (or a generated one), logged
	// by the engine, forwarded to the executing worker by
	// RemoteExecutor, and echoed in the worker's execution logs. Empty
	// for jobs recovered from a store written before request IDs
	// existed.
	RequestID string `json:"request_id,omitempty"`
	// Timings is the job's per-stage trace: a "queue_wait" span from
	// the orchestrating engine followed by the executor's pipeline
	// spans ("train/rf", "label/rf", "discover/rf/prim", ...) in
	// completion order. For gateway jobs the pipeline spans come from
	// the executing worker, carried back through the internal API.
	Timings []StageTiming `json:"timings,omitempty"`
	// Error is the failure reason of a failed job.
	Error string `json:"error,omitempty"`
	// Client is the authenticated client that submitted the job (empty
	// when admission control is disabled). GET /v1/jobs?client= filters
	// on it.
	Client string `json:"client,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// job is the engine-internal mutable state behind a Snapshot.
type job struct {
	id  JobID
	req Request
	// reqJSON is the request as persisted (encoded once at submission or
	// carried over from the store on recovery), reused for every store
	// upsert of this job.
	reqJSON []byte
	// requestID is the job's cross-process trace anchor (see
	// Snapshot.RequestID). Not persisted: a recovered job starts a new
	// trace if it runs again.
	requestID string
	// owner is the authenticated client that submitted the job, persisted
	// so listings can be filtered per client across restarts.
	owner string
	// onDone fires exactly once when the job reaches a terminal state
	// (admission control releases the submitter's in-flight slot here).
	// Not persisted: the accounting is process-local.
	onDone func()
	// onDoneOnce guarantees the exactly-once firing across the racy
	// cancel-while-dequeuing paths.
	onDoneOnce sync.Once
	ctx        context.Context
	cancel     context.CancelFunc

	mu     sync.Mutex
	status Status
	// progress is the most recent executor report; the executor
	// serializes its callbacks, so each report replaces the previous one
	// wholesale.
	progress    Progress
	result      *Result
	err         error
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
}

func (j *job) snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	req := j.req
	s := Snapshot{
		ID:            j.id,
		Status:        j.status,
		Request:       req,
		Stage:         j.progress.Stage,
		LabelDone:     j.progress.LabelDone,
		LabelTotal:    j.progress.LabelTotal,
		VariantsDone:  j.progress.VariantsDone,
		VariantsTotal: j.progress.VariantsTotal,
		RequestID:     j.requestID,
		Client:        j.owner,
		SubmittedAt:   j.submittedAt,
	}
	// The trace starts with the orchestration layer's own span — how
	// long the job sat queued — followed by the executor's pipeline
	// spans. progress.Timings is an immutable snapshot (the sink copies
	// on append), so sharing the tail is safe.
	if !j.startedAt.IsZero() {
		s.Timings = append([]StageTiming{{
			Stage:   "queue_wait",
			Seconds: j.startedAt.Sub(j.submittedAt).Seconds(),
		}}, j.progress.Timings...)
	}
	if req.Dataset != nil {
		s.DatasetN = req.Dataset.N()
		s.DatasetM = req.Dataset.M()
		s.Request.Dataset = nil
	}
	// Checkpoints are infrastructure state, not part of the submission —
	// and carry a job's pseudo-labels; never echo them.
	s.Request.Checkpoint = nil
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		s.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		s.FinishedAt = &t
	}
	return s
}

// recordLocked builds the store record for the job's current state.
// Caller holds j.mu (or has exclusive access during recovery).
func (j *job) recordLocked() store.Record {
	rec := store.Record{
		ID:          string(j.id),
		Status:      string(j.status),
		Owner:       j.owner,
		SubmittedAt: j.submittedAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
		Request:     j.reqJSON,
	}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	return rec
}

// transitionLocked is recordLocked without the request payload: status
// transitions of an already-persisted job upsert with a nil Request
// (the store's merge rule keeps the stored one), so a transition entry
// stays small even for jobs submitted with inline datasets. Caller
// holds j.mu.
func (j *job) transitionLocked() store.Record {
	rec := j.recordLocked()
	rec.Request = nil
	return rec
}

// setProgress replaces the job's progress with the executor's latest
// report.
func (j *job) setProgress(p Progress) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

// fireDone runs the job's terminal hook at most once. Callers invoke it
// after every transition into a terminal state; the sync.Once absorbs
// the duplicate paths (cancel-while-pending followed by the worker
// observing the canceled job).
func (j *job) fireDone() {
	if j.onDone == nil {
		return
	}
	j.onDoneOnce.Do(j.onDone)
}
