package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/reds-go/reds/internal/engine"
	"github.com/reds-go/reds/internal/telemetry"
)

// gateRefMismatch is the gate verdict of a result that differs from
// its GOMAXPROCS=1 reference.
const gateRefMismatch = "differs from the GOMAXPROCS=1 reference"

// xcheckTolerance is how far a benchmark sum and the matching production
// series may disagree before the cross-check flags them.
const xcheckTolerance = 0.05

// snapshot holds the program's own counters at one instant.
type snapshot struct {
	series           map[string]float64 // every reds_* series of every registry
	model, label, rs engine.CacheStats
	trainFallbacks   int64
	rulesetFallbacks int64
}

func takeSnapshot(f *fleet) snapshot {
	s := snapshot{series: map[string]float64{}}
	for _, reg := range f.regs {
		for k, v := range scrape(reg) {
			s.series[k] += v
		}
	}
	for _, e := range f.engines {
		s.model = addStats(s.model, e.CacheStats())
		s.label = addStats(s.label, e.LabelCacheStats())
		s.rs = addStats(s.rs, e.RulesetCacheStats())
	}
	for _, l := range f.locals {
		s.trainFallbacks += l.TrainFallbacks()
		s.rulesetFallbacks += l.RulesetFallbacks()
	}
	return s
}

func addStats(a, b engine.CacheStats) engine.CacheStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Evictions += b.Evictions
	return a
}

// scrape reads a registry through its Prometheus text exposition, the
// same bytes GET /metrics serves.
func scrape(reg *telemetry.Registry) map[string]float64 {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// family sums every series of a metric family (name, or name_sum etc.)
// whose labels contain all of the given label pairs.
func (s snapshot) family(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range s.series {
		base, lbl, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

func delta(a, b snapshot, name string, labels ...string) float64 {
	return b.family(name, labels...) - a.family(name, labels...)
}

// quantile is the Harrell-Davis estimate of the q-quantile of sorted
// xs: a Beta-weighted average of all order statistics. With a few dozen
// jobs per run it varies less from run to run than a single order
// statistic, most of all where the latency distribution has gaps (cache
// hits beside misses).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	est, prev := 0.0, 0.0
	for i, x := range sorted {
		cur := regIncBeta(a, b, float64(i+1)/float64(n))
		est += x * (cur - prev)
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x > (a+1)/(a+b+2) {
		return 1 - front*betaCF(b, a, 1-x)/b
	}
	return front * betaCF(a, b, x) / a
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		step := d * c
		h *= step
		if math.Abs(step-1) < 1e-14 {
			break
		}
	}
	return h
}

// median is the plain sample median, for per-layer metrics.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

type e2eResult struct {
	metrics   map[string]metric
	done      int
	rounds    int
	beyondP90 int
	p50       float64
}

// endToEnd computes the metrics a user of the system sees.
func endToEnd(s *setup, win *window, setupDurs []float64) e2eResult {
	var lat, wr, pr []float64
	last := win.start
	rounds := 0
	for _, o := range win.outcomes {
		if o.Job.Round+1 > rounds {
			rounds = o.Job.Round + 1
		}
		if o.Status != engine.StatusDone {
			continue
		}
		lat = append(lat, o.Done.Sub(o.Submit).Seconds())
		if o.Done.After(last) {
			last = o.Done
		}
		if o.Result != nil && o.Result.Best.Box != nil {
			w, p := quality(o.Result, s.tests[o.Job.Function])
			wr = append(wr, w)
			pr = append(pr, p)
		}
	}
	sort.Float64s(lat)
	p90 := quantile(lat, 0.9)
	beyond := 0
	for _, l := range lat {
		if l > p90 {
			beyond++
		}
	}
	done := float64(len(lat))
	m := map[string]metric{
		"setup_s":               {median(setupDurs), "s"},
		"job_latency_p50_s":     {quantile(lat, 0.5), "s"},
		"job_latency_p90_s":     {p90, "s"},
		"throughput_jobs_per_s": {ratio(done, last.Sub(win.start).Seconds()), "1/s"},
		"cpu_s_per_job":         {ratio(win.cpu, done), "s"},
		"peak_rss_mib":          {peakRSSMiB(), "MiB"},
		"test_wracc_mean":       {mean(wr), "wracc"},
		"test_precision_mean":   {mean(pr), "precision"},
	}
	return e2eResult{metrics: m, done: len(lat), rounds: rounds, beyondP90: beyond, p50: quantile(lat, 0.5)}
}

// stageSeconds returns the production stage span of a job's snapshot
// whose name starts with prefix.
func stageSeconds(o outcome, prefix string) (float64, bool) {
	for _, t := range o.Snap.Timings {
		if strings.HasPrefix(t.Stage, prefix) {
			return t.Seconds, true
		}
	}
	return 0, false
}

// perLayer computes the traced run's per-layer metrics, the cross-check
// against the program's own instruments and the tracing overhead.
func perLayer(s *setup, win, untraced *window, name string, seed int64) (map[string]metric, []string, error) {
	tr := s.f.tr
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	engIDs := map[string]string{}
	keys := map[string]*outcome{}
	for i := range win.outcomes {
		o := &win.outcomes[i]
		keys[o.Key] = o
		if o.EngID != "" {
			engIDs[o.EngID] = o.Key
		}
	}
	spans, traces := analyse(spans, engIDs)
	path := filepath.Join(scratchDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := writeJSONLines(path, spans); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	byJob := map[string][]span{}
	for _, sp := range spans {
		if _, ok := keys[sp.Job]; ok {
			byJob[sp.Job] = append(byJob[sp.Job], sp)
		}
	}

	var (
		done                                          []*outcome
		queueWait, overhead, simulate, sampleS        []float64
		train, labelFull, labelDist, labelPts         []float64
		fidelity, submit, polls, resultFetch          []float64
		startCalls, pollCalls, cpFetches, cpBytes     []float64
		cpFetchS, dispatchOver, putJob, putResult     []float64
		putCP, storeCPBytes, walBytes                 []float64
		benchStage, benchTrainMiss, benchLabelDistill float64
		benchQueueWait, snapStage                     float64
		benchModelHits, benchLabelHits                float64
		storeCalls, startSpans                        float64
		binnedJobs, distilledJobs                     float64
		repeats, sameWorker                           float64
	)
	trainSplit := map[string][]float64{}
	sdSplit := map[string][]float64{}
	firstWorker := map[int]string{}
	for i := range win.outcomes {
		o := &win.outcomes[i]
		if o.Job.Req.TrainMode == "binned" {
			binnedJobs++
		}
		if o.Job.Req.LabelKernel == "distilled" {
			distilledJobs++
		}
		if o.Status != engine.StatusDone || o.Result == nil {
			continue
		}
		done = append(done, o)
		best := o.Result.Best
		lat := o.Done.Sub(o.Submit).Seconds()
		submit = append(submit, o.SubmitS)
		resultFetch = append(resultFetch, o.ResultS)
		polls = append(polls, float64(o.Polls))
		if o.Snap.StartedAt != nil {
			qw := o.Snap.StartedAt.Sub(o.Snap.SubmittedAt).Seconds()
			queueWait = append(queueWait, qw)
			benchQueueWait += qw
		}
		for _, t := range o.Snap.Timings {
			if t.Stage != "queue_wait" {
				snapStage += t.Seconds
			}
		}
		if v, ok := stageSeconds(*o, "simulate"); ok {
			simulate = append(simulate, v)
		}
		if v, ok := stageSeconds(*o, "sample/"); ok {
			sampleS = append(sampleS, v)
		}
		if v, ok := stageSeconds(*o, "train/"); ok && !best.CacheHit {
			train = append(train, v)
			benchTrainMiss += v
			k := fmt.Sprintf("metamodel.train_%s_%s_s", best.Metamodel, best.TrainMode)
			trainSplit[k] = append(trainSplit[k], v)
		}
		if v, ok := stageSeconds(*o, "label/"); ok && !best.LabelCacheHit && v > 0 {
			if best.LabelKernel == "distilled" {
				labelDist = append(labelDist, v)
				benchLabelDistill += v
			} else {
				labelFull = append(labelFull, v)
			}
			labelPts = append(labelPts, float64(o.Job.Req.L)/v)
		}
		if v, ok := stageSeconds(*o, "discover/"); ok {
			sdSplit[best.SD] = append(sdSplit[best.SD], v)
		}
		if best.LabelFidelity > 0 {
			fidelity = append(fidelity, best.LabelFidelity)
		}
		if best.CacheHit {
			benchModelHits++
		}
		if best.LabelCacheHit {
			benchLabelHits++
		}

		var execSpan, workerSpan float64
		var nStart, nPoll, nCP, cpB, stCP, wal float64
		worker := ""
		for _, sp := range byJob[o.Key] {
			d := sp.End - sp.Start
			switch sp.Name {
			case "executor.local", "executor.gateway":
				execSpan = d
			case "executor.worker":
				workerSpan = d
			case "stage.local", "stage.worker":
				benchStage += d
			case "cluster.start":
				nStart++
				startSpans++
				worker = sp.Attr
			case "cluster.poll":
				nPoll++
			case "cluster.checkpoint":
				nCP++
				cpB += float64(sp.Bytes)
				cpFetchS = append(cpFetchS, d)
			case "store.put_job":
				putJob = append(putJob, d)
			case "store.put_result":
				putResult = append(putResult, d)
			case "store.put_checkpoint":
				if sp.Bytes > 0 {
					putCP = append(putCP, d)
					stCP += float64(sp.Bytes)
				}
			}
			if s.w.Gateway && (strings.HasPrefix(sp.Name, "store.put") || sp.Name == "store.delete") {
				storeCalls++
				wal += float64(sp.Wal)
			}
		}
		if execSpan > 0 {
			overhead = append(overhead, lat-execSpan)
		}
		if s.w.Gateway {
			startCalls = append(startCalls, nStart)
			pollCalls = append(pollCalls, nPoll)
			cpFetches = append(cpFetches, nCP)
			cpBytes = append(cpBytes, cpB)
			storeCPBytes = append(storeCPBytes, stCP)
			walBytes = append(walBytes, wal)
			if workerSpan > 0 {
				dispatchOver = append(dispatchOver, execSpan-workerSpan)
			}
			if o.Job.RepeatOf < 0 {
				firstWorker[o.Job.Index] = worker
			} else if fw, ok := firstWorker[o.Job.RepeatOf]; ok {
				repeats++
				if fw == worker && worker != "" {
					sameWorker++
				}
			}
		}
	}

	b, a := win.before, win.after
	nDone := float64(len(done))
	hitRatio := func(x, y engine.CacheStats) float64 {
		h, m := float64(y.Hits-x.Hits), float64(y.Misses-x.Misses)
		return ratio(h, h+m)
	}
	distillN := delta(b, a, "reds_ruleset_distill_seconds_count")
	m := map[string]metric{
		"engine.queue_wait_s":                {median(queueWait), "s"},
		"engine.overhead_s":                  {median(overhead), "s"},
		"funcs.simulate_s":                   {median(simulate), "s"},
		"metamodel.train_s":                  {median(train), "s"},
		"metamodel.binned_fallback_ratio":    {ratio(float64(a.trainFallbacks-b.trainFallbacks), binnedJobs), "ratio"},
		"sample.sample_s":                    {median(sampleS), "s"},
		"core.label_full_s":                  {median(labelFull), "s"},
		"core.label_distilled_s":             {median(labelDist), "s"},
		"core.label_points_per_s":            {median(labelPts), "1/s"},
		"ruleset.distill_s":                  {ratio(delta(b, a, "reds_ruleset_distill_seconds_sum"), distillN), "s"},
		"ruleset.fidelity_mean":              {mean(fidelity), "ratio"},
		"ruleset.fallback_ratio":             {ratio(float64(a.rulesetFallbacks-b.rulesetFallbacks), distilledJobs), "ratio"},
		"cache.model_hit_ratio":              {hitRatio(b.model, a.model), "ratio"},
		"cache.label_hit_ratio":              {hitRatio(b.label, a.label), "ratio"},
		"cache.ruleset_hit_ratio":            {hitRatio(b.rs, a.rs), "ratio"},
		"cache.evictions":                    {float64(a.model.Evictions - b.model.Evictions + a.label.Evictions - b.label.Evictions + a.rs.Evictions - b.rs.Evictions), "count"},
		"cluster.start_calls_per_job":        {mean(startCalls), "count"},
		"cluster.poll_calls_per_job":         {mean(pollCalls), "count"},
		"cluster.checkpoint_fetches_per_job": {mean(cpFetches), "count"},
		"cluster.checkpoint_bytes_per_job":   {median(cpBytes), "B"},
		"cluster.checkpoint_fetch_s":         {median(cpFetchS), "s"},
		"cluster.dispatch_overhead_s":        {median(dispatchOver), "s"},
		"cluster.affinity_ratio":             {ratio(sameWorker, repeats), "ratio"},
		"cluster.retries":                    {delta(b, a, "reds_cluster_retry_attempts_total"), "count"},
		"cluster.failovers":                  {delta(b, a, "reds_cluster_failovers_total"), "count"},
		"store.put_job_s":                    {median(putJob), "s"},
		"store.put_result_s":                 {median(putResult), "s"},
		"store.put_checkpoint_s":             {median(putCP), "s"},
		"store.checkpoint_bytes_per_job":     {median(storeCPBytes), "B"},
		"store.wal_bytes_per_job":            {median(walBytes), "B"},
		"api.submit_s":                       {median(submit), "s"},
		"api.poll_calls_per_job":             {mean(polls), "count"},
		"api.result_fetch_s":                 {median(resultFetch), "s"},
		"admission.rejected":                 {delta(b, a, "reds_admission_rejected_total"), "count"},
		"runtime.gc_cycles_per_job":          {ratio(float64(win.mem1.NumGC-win.mem0.NumGC), nDone), "count"},
		"runtime.gc_pause_s_per_job":         {ratio(float64(win.mem1.PauseTotalNs-win.mem0.PauseTotalNs)/1e9, nDone), "s"},
		"runtime.alloc_bytes_per_job":        {ratio(float64(win.mem1.TotalAlloc-win.mem0.TotalAlloc), nDone), "B"},
	}
	for _, mm := range []string{"rf", "xgb"} {
		for _, mode := range []string{"exact", "binned"} {
			k := fmt.Sprintf("metamodel.train_%s_%s_s", mm, mode)
			m[k] = metric{median(trainSplit[k]), "s"}
		}
	}
	for _, sd := range []string{"prim", "bi", "bumping"} {
		m["sd."+sd+"_s"] = metric{median(sdSplit[sd]), "s"}
	}

	// Self time: the mean per job of each layer's share of the job's
	// latency; the shares of one job sum to its latency.
	var notes []string
	var lats []float64
	self := map[string][]float64{}
	var medianJob *jobTrace
	for _, o := range done {
		jt, ok := traces[o.Key]
		if !ok {
			continue
		}
		lats = append(lats, jt.Latency)
		for _, l := range selfLayers {
			self[l] = append(self[l], jt.Self[l])
		}
	}
	medLat := median(lats)
	for _, o := range done {
		if jt, ok := traces[o.Key]; ok && (medianJob == nil || math.Abs(jt.Latency-medLat) < math.Abs(medianJob.Latency-medLat)) {
			medianJob = jt
		}
	}
	for _, l := range selfLayers {
		m["self."+l+"_s"] = metric{mean(self[l]), "s"}
	}
	covered := 0.0
	if medianJob != nil {
		sum := 0.0
		parts := []string{}
		for _, l := range selfLayers {
			sum += medianJob.Self[l]
			if medianJob.Self[l] > 0 {
				parts = append(parts, fmt.Sprintf("%s=%.4f", l, medianJob.Self[l]))
			}
		}
		covered = ratio(sum, medianJob.Latency)
		notes = append(notes, fmt.Sprintf("trace: median job latency %.4fs = %s (layers account for %.4f of it)",
			medianJob.Latency, strings.Join(parts, " + "), covered))
	}
	m["trace.self_coverage"] = metric{covered, "ratio"}
	m["trace.spans"] = metric{float64(len(spans)), "count"}
	untracedP50 := 0.0
	if untraced != nil {
		untracedP50 = endToEnd(s, untraced, nil).p50
	}
	tracedP50 := endToEnd(s, win, nil).p50
	m["trace.untraced_p50_s"] = metric{untracedP50, "s"}
	m["trace.traced_p50_s"] = metric{tracedP50, "s"}
	m["trace.overhead_s"] = metric{tracedP50 - untracedP50, "s"}

	// Gate results beside the layers.
	failed := 0.0
	for _, o := range win.outcomes {
		if o.Gate != "" {
			failed++
		}
	}
	m["gate.failed_share"] = metric{ratio(failed, float64(len(win.outcomes))), "ratio"}
	m["gate.jobs"] = metric{float64(len(win.outcomes)), "count"}

	// Cross-check: the benchmark's per-layer sums against the program's
	// own instruments, read from the registries the fleet was given.
	type xc struct {
		name        string
		bench, prod float64
		check       func(r float64) bool
	}
	near := func(r float64) bool { return math.Abs(r-1) <= xcheckTolerance }
	xcs := []xc{
		{"stage_seconds", benchStage, delta(b, a, "reds_exec_stage_seconds_sum"), near},
		{"snapshot_stage_seconds", benchStage, snapStage, near},
		{"train_seconds", benchTrainMiss, delta(b, a, "reds_train_seconds_sum"), near},
		{"distill_within_label", benchLabelDistill, delta(b, a, "reds_ruleset_distill_seconds_sum"), func(r float64) bool { return r <= 1+xcheckTolerance }},
		{"model_cache_hits", benchModelHits, delta(b, a, "reds_cache_hits_total", `cache="model"`), near},
		{"label_cache_hits", benchLabelHits, delta(b, a, "reds_cache_hits_total", `cache="label"`), near},
		{"queue_wait_seconds", benchQueueWait, delta(b, a, "reds_engine_queue_wait_seconds_sum"), near},
		{"store_wal_appends", storeCalls, delta(b, a, "reds_store_wal_appends_total"), near},
		{"cluster_dispatches", startSpans, delta(b, a, "reds_cluster_dispatches_total"), near},
	}
	disagree := 0
	for _, x := range xcs {
		if x.bench == 0 && x.prod == 0 {
			notes = append(notes, fmt.Sprintf("xcheck: %-24s bench=0 prod=0 (not exercised)", x.name))
			m["xcheck."+x.name+"_ratio"] = metric{0, "ratio"}
			continue
		}
		r := ratio(x.prod, x.bench)
		verdict := "ok"
		if !x.check(r) {
			verdict = "DISAGREE"
			disagree++
		}
		m["xcheck."+x.name+"_ratio"] = metric{r, "ratio"}
		notes = append(notes, fmt.Sprintf("xcheck: %-24s bench=%.6g prod=%.6g ratio=%.4f %s", x.name, x.bench, x.prod, r, verdict))
	}
	m["xcheck.disagreements"] = metric{float64(disagree), "count"}
	return m, notes, nil
}
