package engine

import (
	"encoding/json"
	"sync"
	"time"
)

// Checkpoint is a resumable snapshot of a partially executed request.
// The executor publishes one after every completed unit of reusable
// work (a family's pseudo-labeling, a finished variant); the engine
// persists the latest snapshot through the store, and on failover the
// dispatcher forwards it to the next candidate worker, which re-runs
// only what the checkpoint cannot prove finished.
//
// A checkpoint is self-validating: DatasetHash pins it to the training
// data, and the cache keys pin the pseudo-labels to the exact
// model/sampler/seed tuple, so a worker never resumes from a snapshot
// computed under different inputs.
type Checkpoint struct {
	// Seq orders snapshots of one job. It increases monotonically across
	// executions — a resumed execution continues counting from the
	// inbound checkpoint's Seq — so consumers can keep the newest
	// snapshot by comparing Seq alone.
	Seq uint64 `json:"seq"`
	// DatasetHash is the content hash of the training data the snapshot
	// was computed from. A worker ignores a checkpoint whose hash does
	// not match its own resolved training data.
	DatasetHash string `json:"dataset_hash"`
	// Variants holds the finished variant results; a resuming worker
	// reuses them verbatim and re-runs only the missing combinations.
	Variants []VariantResult `json:"variants,omitempty"`
	// Timings are the pipeline spans closed before the snapshot was
	// taken. A resuming worker preloads them into its own trace, so the
	// job's final timings are the union of every execution's spans with
	// no duplicates for skipped work.
	Timings []StageTiming `json:"timings,omitempty"`
	// ModelKeys maps metamodel family → model-cache key: a warm resuming
	// worker hits its cache under the same key.
	ModelKeys map[string]string `json:"model_keys,omitempty"`
	// LabelKeys maps metamodel family → content-addressed label-dataset
	// cache key (see internal/engine/cache.go for the key scheme).
	LabelKeys map[string]string `json:"label_keys,omitempty"`
	// Labels carries the pseudo-labels themselves, per family, in sample
	// order, up to the executor's checkpoint byte budget (8 B a label).
	// Only the labels travel: the sample they label is a pure function of
	// what the family's label key already pins — sampler, L, dimension
	// and label seed (core.SamplePoints) — so a cold replacement worker
	// rebuilds Dnew from them and skips the train/sample/label stages
	// entirely. The discover stage needs only Dnew and the real
	// validation data, not the trained model. Families whose labels did
	// not fit the budget keep only their keys: a warm worker still hits
	// its caches, a cold one recomputes.
	Labels map[string][]float64 `json:"labels,omitempty"`
	// LabelReports tells, per family with Labels, how the labels were
	// made. A variant resumed from them reports it verbatim, so its
	// result matches the execution that labeled.
	LabelReports map[string]LabelReport `json:"label_reports,omitempty"`
	// ElapsedSeconds accumulates the wall-clock time every execution of
	// the job has spent so far. A resumed execution subtracts it from
	// the request's deadline budget, so a job deadline bounds the job —
	// not each failover attempt separately.
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
}

// LabelReport is what a variant reports about its pseudo-labels: the
// kernel that labeled them ("full" or "distilled", after any fallback)
// and, when a distillation was involved, its holdout fidelity, its
// exported rules (distilled kernel only) and the reason it was rejected
// (if it was).
type LabelReport struct {
	Kernel         string          `json:"kernel"`
	Fidelity       float64         `json:"fidelity,omitempty"`
	FallbackReason string          `json:"fallback_reason,omitempty"`
	Rules          json.RawMessage `json:"rules,omitempty"`
}

// resumable is one family's checkpointed labels with their report.
type resumable struct {
	labels []float64
	report LabelReport
}

// checkpointRecorder accumulates one execution's reusable work and
// publishes immutable Checkpoint snapshots through the progress sink.
// It is seeded from the inbound checkpoint (if any), so snapshots
// survive chained failovers: work finished two executions ago is still
// in the checkpoint the third execution publishes.
type checkpointRecorder struct {
	mu          sync.Mutex
	sink        *progressSink
	seq         uint64
	datasetHash string
	// budgetLeft bounds the total bytes of checkpointed labels.
	budgetLeft int64
	variants   []VariantResult
	modelKeys  map[string]string
	labelKeys  map[string]string
	labels     map[string]resumable
	// inbound maps label-cache key → labels from the checkpoint this
	// execution resumed from. Keying by the full cache key (rather than
	// family) makes the lookup self-validating: if this worker computes
	// a different key — different seed, sampler, L — the stale labels
	// are simply not found and the stage recomputes.
	inbound map[string]resumable
	// start anchors this execution's contribution to ElapsedSeconds;
	// baseElapsed carries what earlier executions already spent.
	start       time.Time
	baseElapsed float64
}

// labelBytes is the checkpoint budget weight of one family's labels.
func labelBytes(y []float64) int64 { return 8 * int64(len(y)) }

// newCheckpointRecorder seeds a recorder for one execution of a request
// that labels l points per family. cp is the inbound checkpoint (nil for
// a fresh run) — its hash must already be validated by the caller.
// Inbound labels count only when they cover the whole sample: a set of
// any other length is dropped, so its family recomputes.
func newCheckpointRecorder(cp *Checkpoint, datasetHash string, l int, budget int64, sink *progressSink) *checkpointRecorder {
	r := &checkpointRecorder{
		sink:        sink,
		datasetHash: datasetHash,
		budgetLeft:  budget,
		modelKeys:   make(map[string]string),
		labelKeys:   make(map[string]string),
		labels:      make(map[string]resumable),
		inbound:     make(map[string]resumable),
		start:       time.Now(),
	}
	if cp == nil {
		return r
	}
	r.seq = cp.Seq
	r.baseElapsed = cp.ElapsedSeconds
	r.variants = append(r.variants, cp.Variants...)
	for fam, k := range cp.ModelKeys {
		r.modelKeys[fam] = k
	}
	for fam, k := range cp.LabelKeys {
		r.labelKeys[fam] = k
		if y := cp.Labels[fam]; len(y) == l {
			in := resumable{labels: y, report: cp.LabelReports[fam]}
			r.inbound[k] = in
			// Carry the labels forward so the next failover can still
			// resume cold; they already fit the previous budget.
			r.labels[fam] = in
			r.budgetLeft -= labelBytes(y)
		}
	}
	return r
}

// resumeLabels returns the inbound checkpoint's labels for the given
// label-cache key with their report; ok is false when the checkpoint
// has none (or they were computed under different inputs).
func (r *checkpointRecorder) resumeLabels(labelKey string) (y []float64, rep LabelReport, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := r.inbound[labelKey]
	return in.labels, in.report, ok
}

// labelStageDone records that a family's pseudo-labeling finished under
// labelKey (keys always; the labels y and their report while the byte
// budget lasts) and publishes a new snapshot. Idempotent per family and
// key — concurrent variants of one family record once — while a
// different key replaces whatever the family carried before.
func (r *checkpointRecorder) labelStageDone(family, modelKey, labelKey string, y []float64, rep LabelReport) {
	r.mu.Lock()
	old, has := r.labels[family]
	if r.labelKeys[family] == labelKey && (has || labelBytes(y) > r.budgetLeft) {
		// Already recorded, or recording again would change nothing.
		r.mu.Unlock()
		return
	}
	r.budgetLeft += labelBytes(old.labels)
	delete(r.labels, family)
	r.modelKeys[family] = modelKey
	r.labelKeys[family] = labelKey
	if w := labelBytes(y); w <= r.budgetLeft {
		r.labels[family] = resumable{labels: y, report: rep}
		r.budgetLeft -= w
	}
	cp := r.snapshotLocked()
	r.mu.Unlock()
	r.sink.setCheckpoint(cp)
}

// variantDone records a finished variant and publishes a new snapshot.
func (r *checkpointRecorder) variantDone(vr VariantResult) {
	r.mu.Lock()
	r.variants = append(r.variants, vr)
	cp := r.snapshotLocked()
	r.mu.Unlock()
	r.sink.setCheckpoint(cp)
}

// snapshotLocked builds an immutable Checkpoint from the current state.
// Timings are filled in by the sink at publish time, so the snapshot's
// trace exactly matches the progress it travels with. Caller holds
// r.mu.
func (r *checkpointRecorder) snapshotLocked() *Checkpoint {
	r.seq++
	cp := &Checkpoint{
		Seq:            r.seq,
		DatasetHash:    r.datasetHash,
		Variants:       append([]VariantResult(nil), r.variants...),
		ModelKeys:      make(map[string]string, len(r.modelKeys)),
		LabelKeys:      make(map[string]string, len(r.labelKeys)),
		ElapsedSeconds: r.baseElapsed + time.Since(r.start).Seconds(),
	}
	for fam, k := range r.modelKeys {
		cp.ModelKeys[fam] = k
	}
	for fam, k := range r.labelKeys {
		cp.LabelKeys[fam] = k
	}
	if len(r.labels) > 0 {
		cp.Labels = make(map[string][]float64, len(r.labels))
		cp.LabelReports = make(map[string]LabelReport, len(r.labels))
		for fam, in := range r.labels {
			cp.Labels[fam] = in.labels
			cp.LabelReports[fam] = in.report
		}
	}
	return cp
}
