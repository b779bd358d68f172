// Command chaos-smoke is the CI fault-injection check: it boots a real
// three-worker fleet with faults armed and asserts the robustness
// machinery holds the system together:
//
//   - the gateway's /v1/readyz gates startup (503 until the prober has
//     seen an alive worker),
//   - a worker is registered at runtime through the worker-admin API and
//     receives traffic,
//   - the worker owning a multi-variant job is killed mid-execution (the
//     exec.exit-after fault point: it exits right after the gateway has
//     fetched a checkpoint covering a finished discover variant, while
//     the job is still running), and the job still completes — resumed
//     from its forwarded checkpoint, with no duplicated train/label work
//     (reds_engine_checkpoint_resumes_total ≥ 1 on the survivors),
//   - a dropped status-poll connection (exec.status.drop) is absorbed by
//     the retry/backoff discipline (reds_cluster_retry_attempts_total),
//   - the dead worker is deregistered and a replacement re-registered,
//     after which the fleet runs a full batch of jobs to completion.
//
// The whole fleet runs with admission enabled — bearer tokens, per-client
// quotas and the internal shared secret — so every chaos scenario above
// also proves the failover/checkpoint machinery works through the
// authenticated paths (the worker-admin calls authenticate with the
// token's admin role; dispatches carry the secret).
//
// Run it from the repository root:
//
//	go run ./scripts/chaos-smoke
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/reds-go/reds/internal/cluster"
	"github.com/reds-go/reds/internal/engine"
)

const (
	worker1Addr = "127.0.0.1:19080"
	worker2Addr = "127.0.0.1:19081"
	worker3Addr = "127.0.0.1:19082"
	gatewayAddr = "127.0.0.1:19090"

	// Admission config for the fleet: one token with submit+read+admin
	// (the script drives the worker-admin API too) and a shared internal
	// secret. The quota is generous — this smoke stresses fault paths,
	// not throttling (cluster-smoke owns the 429 assertions).
	internalSecret = "chaos-hush"
	chaosToken     = "chaos-token"
	tokenFileJSON  = `{"tokens":[{"token":"` + chaosToken + `","client":"chaos","roles":["submit","read","admin"]}]}`
)

var (
	worker1URL = "http://" + worker1Addr
	worker2URL = "http://" + worker2Addr
	worker3URL = "http://" + worker3Addr
	gatewayURL = "http://" + gatewayAddr
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaos-smoke: ")
	if err := run(); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	log.Printf("PASS")
}

func run() error {
	bin, err := os.MkdirTemp("", "reds-chaos-bin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(bin)

	log.Printf("building binaries")
	for _, target := range []string{"redsserver", "redsgateway"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, target), "./cmd/"+target)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building %s: %w", target, err)
		}
	}
	stores, err := os.MkdirTemp("", "reds-chaos-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stores)

	tokenFile := filepath.Join(stores, "tokens.json")
	if err := os.WriteFile(tokenFile, []byte(tokenFileJSON), 0o600); err != nil {
		return fmt.Errorf("writing token file: %w", err)
	}

	worker := func(addr, storeDir, faults string) *exec.Cmd {
		args := []string{"-addr", addr, "-workers", "2", "-store.dir", filepath.Join(stores, storeDir),
			"-auth.tokens", tokenFile, "-internal.secret", internalSecret}
		if faults != "" {
			args = append(args, "-faults", faults)
		}
		c := exec.Command(filepath.Join(bin, "redsserver"), args...)
		c.Stdout, c.Stderr = os.Stderr, os.Stderr
		return c
	}

	// w1 carries the kill fault: the process exits as soon as it has
	// served the gateway a checkpoint that covers a closed discover span
	// — like a crash that strikes right after a checkpoint was fetched,
	// while the job's other variants still run. w2 drops one
	// status-poll connection to exercise the retry budget. w3 starts
	// clean and outside the gateway's initial worker set: it joins
	// through the admin API.
	w1 := worker(worker1Addr, "w1", "exec.exit-after=discover/")
	w2 := worker(worker2Addr, "w2", "exec.status.drop=1")
	w3 := worker(worker3Addr, "w3", "")
	gw := exec.Command(filepath.Join(bin, "redsgateway"), "-addr", gatewayAddr,
		"-workers", worker1URL+","+worker2URL,
		"-health.interval", "500ms", "-poll.interval", "50ms",
		"-store.dir", filepath.Join(stores, "gw"),
		"-auth.tokens", tokenFile, "-internal.secret", internalSecret,
		"-quota.rps", "50", "-quota.burst", "50")
	gw.Stdout, gw.Stderr = os.Stderr, os.Stderr

	procs := []*exec.Cmd{w1, w2, w3, gw}
	for _, p := range procs {
		if err := p.Start(); err != nil {
			return fmt.Errorf("starting %s: %w", p.Path, err)
		}
	}
	kill := func(p *exec.Cmd) {
		if p != nil && p.Process != nil {
			_ = p.Process.Kill()
			_ = p.Wait()
		}
	}
	var w1replacement *exec.Cmd
	defer func() {
		for _, p := range procs {
			kill(p)
		}
		kill(w1replacement)
	}()

	for _, base := range []string{worker1URL, worker2URL, worker3URL, gatewayURL} {
		if err := waitHealthy(base, 30*time.Second); err != nil {
			return err
		}
	}
	if err := waitReady(gatewayURL, 30*time.Second); err != nil {
		return err
	}
	if err := waitGatewaySeesWorkers(2, 30*time.Second); err != nil {
		return err
	}
	changes0, err := ringChanges()
	if err != nil {
		return err
	}
	log.Printf("fleet up: 2 registered workers ready, ring changes=%d", changes0)

	// Elastic join: w3 registers at runtime.
	if err := adminWorker("POST", worker3URL); err != nil {
		return fmt.Errorf("registering w3: %w", err)
	}
	if err := waitGatewaySeesWorkers(3, 30*time.Second); err != nil {
		return err
	}
	if got, err := ringChanges(); err != nil || got != changes0+1 {
		return fmt.Errorf("ring changes after registration = %d (err %v), want %d", got, err, changes0+1)
	}
	log.Printf("w3 registered through the admin API")

	// The chaos job: three SD variants over one metamodel family, with a
	// seed chosen (against the same consistent-hash ring the gateway
	// runs) so the job lands on the fault-armed w1. The first finished
	// discover variant pulls the trigger; the forwarded checkpoint must
	// carry the failover.
	seed := ownedSeed(worker1URL)
	log.Printf("chaos job seed %d routes to w1", seed)
	chaosID, err := submit(fmt.Sprintf(
		`{"function":"morris","n":120,"l":20000,"seed":%d,"sd":["prim","bumping","bi"]}`, seed), "")
	if err != nil {
		return fmt.Errorf("submitting chaos job: %w", err)
	}

	// The fault must actually kill w1 (exit code 3, not a crash), and
	// while the chaos job still runs: a job that finished first
	// exercised no failover.
	w1exit := make(chan error, 1)
	go func() { w1exit <- w1.Wait() }()
	giveUp := time.After(120 * time.Second)
	for exited := false; !exited; {
		select {
		case <-w1exit:
			exited = true
		case <-giveUp:
			return fmt.Errorf("exec.exit-after fault never fired on w1")
		case <-time.After(100 * time.Millisecond):
			if err := checkChaosJobRunning(chaosID); err != nil {
				return err
			}
		}
	}
	if code := w1.ProcessState.ExitCode(); code != 3 {
		return fmt.Errorf("w1 exited with code %d, want the fault's exit code 3", code)
	}
	procs[0] = nil // already reaped
	if err := checkChaosJobRunning(chaosID); err != nil {
		return err
	}
	log.Printf("w1 killed itself mid-job (fault fired)")

	if err := waitDone(chaosID, 180*time.Second); err != nil {
		return fmt.Errorf("chaos job after worker death: %w", err)
	}
	if err := checkChaosTrace(chaosID); err != nil {
		return err
	}
	resumes, err := sumSeries("reds_engine_checkpoint_resumes_total", worker2URL, worker3URL)
	if err != nil {
		return err
	}
	if resumes < 1 {
		return fmt.Errorf("no survivor resumed from a checkpoint (reds_engine_checkpoint_resumes_total = %v)", resumes)
	}
	log.Printf("chaos job completed after failover, %v checkpoint resume(s) on survivors", resumes)

	// Elastic repair: deregister the corpse, boot and re-register a
	// replacement on the same address and store.
	if err := adminWorker("DELETE", worker1URL); err != nil {
		return fmt.Errorf("deregistering dead w1: %w", err)
	}
	if err := waitGatewaySeesWorkers(2, 30*time.Second); err != nil {
		return err
	}
	w1replacement = worker(worker1Addr, "w1", "")
	if err := w1replacement.Start(); err != nil {
		return fmt.Errorf("restarting w1: %w", err)
	}
	if err := waitHealthy(worker1URL, 30*time.Second); err != nil {
		return err
	}
	if err := adminWorker("POST", worker1URL); err != nil {
		return fmt.Errorf("re-registering w1: %w", err)
	}
	if err := waitGatewaySeesWorkers(3, 30*time.Second); err != nil {
		return err
	}
	if got, err := ringChanges(); err != nil || got != changes0+3 {
		return fmt.Errorf("ring changes after dereg+rereg = %d (err %v), want %d", got, err, changes0+3)
	}
	log.Printf("dead w1 deregistered, replacement re-registered")

	// The repaired fleet absorbs a full batch — including whatever keys
	// the dead worker used to own, and w2's one dropped poll connection.
	ids := make([]string, 0, 6)
	for s := 1; s <= 6; s++ {
		id, err := submit(fmt.Sprintf(`{"function":"morris","n":120,"l":2000,"seed":%d}`, s), "")
		if err != nil {
			return fmt.Errorf("submitting batch job (seed %d): %w", s, err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := waitDone(id, 120*time.Second); err != nil {
			return err
		}
	}
	log.Printf("all %d batch jobs done on the repaired fleet", len(ids))

	// The fault-tolerance machinery left its fingerprints on /metrics.
	retries, err := sumSeries("reds_cluster_retry_attempts_total", gatewayURL)
	if err != nil {
		return err
	}
	if retries < 1 {
		return fmt.Errorf("no retries recorded despite the death and the dropped connection")
	}
	trips, err := sumSeries("reds_cluster_breaker_transitions_total", gatewayURL)
	if err != nil {
		return err
	}
	if trips < 1 {
		return fmt.Errorf("the dead worker never tripped its circuit breaker")
	}
	log.Printf("telemetry consistent: %v retries, %v breaker transitions", retries, trips)
	return nil
}

// ownedSeed finds a seed whose request routes to the target worker on
// the same 128-vnode consistent-hash ring the gateway runs.
func ownedSeed(target string) int64 {
	ring := cluster.NewRing(128, worker1URL, worker2URL, worker3URL)
	for seed := int64(1); seed <= 10000; seed++ {
		req := engine.Request{Function: "morris", N: 120, Seed: seed}
		if node, ok := ring.Lookup(req.ShardKey()); ok && node == target {
			return seed
		}
	}
	panic("no seed in 1..10000 routes to " + target) // 3 workers: unreachable
}

// checkChaosJobRunning fails once the chaos job is terminal on the
// gateway before w1 died: then the job never needed its checkpoint.
func checkChaosJobRunning(id string) error {
	var snap struct {
		Status string `json:"status"`
	}
	if err := getJSON(fmt.Sprintf("%s/v1/jobs/%s", gatewayURL, id), &snap); err != nil {
		return fmt.Errorf("chaos job snapshot: %w", err)
	}
	if snap.Status != "pending" && snap.Status != "running" {
		return fmt.Errorf("chaos job finished before the fault fired; no failover was exercised (status %s)", snap.Status)
	}
	return nil
}

// checkChaosTrace asserts the resumed job's trace carries no duplicated
// work: the stitched trace is the forwarded checkpoint's spans plus the
// successor's discover re-runs, so train/label spans stay within the
// one-per-variant bound and each variant's discover appears exactly once.
func checkChaosTrace(id string) error {
	var snap struct {
		Timings []struct {
			Stage string `json:"stage"`
		} `json:"timings"`
	}
	if err := getJSON(fmt.Sprintf("%s/v1/jobs/%s", gatewayURL, id), &snap); err != nil {
		return fmt.Errorf("chaos job snapshot: %w", err)
	}
	trains, labels, discovers := 0, 0, 0
	for _, ts := range snap.Timings {
		switch {
		case strings.HasPrefix(ts.Stage, "train/"):
			trains++
		case strings.HasPrefix(ts.Stage, "label/"):
			labels++
		case strings.HasPrefix(ts.Stage, "discover/"):
			discovers++
		}
	}
	if trains < 1 || trains > 3 || labels > 3 || discovers != 3 {
		return fmt.Errorf("chaos job trace has %d train / %d label / %d discover spans, want ≤3/≤3/3 — duplicated work after failover: %+v",
			trains, labels, discovers, snap.Timings)
	}
	log.Printf("chaos job trace whole: %d train / %d label / %d discover spans", trains, labels, discovers)
	return nil
}

// adminWorker drives the gateway's worker-admin API, authenticating
// with the chaos token's admin role.
func adminWorker(method, workerURL string) error {
	body, _ := json.Marshal(map[string]string{"url": workerURL})
	req, err := http.NewRequest(method, gatewayURL+"/internal/v1/workers", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+chaosToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s /internal/v1/workers (%s): %s: %.200s", method, workerURL, resp.Status, raw)
	}
	return nil
}

// ringChanges reads the ring mutation counter off the gateway healthz.
func ringChanges() (int, error) {
	var hz struct {
		Ring struct {
			Changes int `json:"changes"`
		} `json:"ring"`
	}
	if err := getJSON(gatewayURL+"/v1/healthz", &hz); err != nil {
		return 0, err
	}
	return hz.Ring.Changes, nil
}

// sumSeries scrapes /metrics on the given bases and sums every series of
// the named family (across label sets and bases).
func sumSeries(family string, bases ...string) (float64, error) {
	var total float64
	for _, base := range bases {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			return 0, fmt.Errorf("GET %s/metrics: %w", base, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if !strings.HasPrefix(line, family) {
				continue
			}
			rest := line[len(family):]
			if rest != "" && rest[0] != ' ' && rest[0] != '{' {
				continue // a longer family name sharing the prefix
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				return 0, fmt.Errorf("%s/metrics: bad value in %q: %w", base, line, err)
			}
			total += v
		}
	}
	return total, nil
}

func waitGatewaySeesWorkers(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var ghz struct {
			OK      bool `json:"ok"`
			Workers []struct {
				Alive bool `json:"alive"`
			} `json:"workers"`
		}
		err := getJSON(gatewayURL+"/v1/healthz", &ghz)
		if err == nil && ghz.OK && len(ghz.Workers) == want {
			alive := 0
			for _, w := range ghz.Workers {
				if w.Alive {
					alive++
				}
			}
			if alive == want {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway never saw %d workers alive: %+v (%v)", want, ghz, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func waitReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/v1/readyz never answered 200 (last error: %v)", base, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %v", base, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func submit(body, requestID string) (string, error) {
	req, err := http.NewRequest("POST", gatewayURL+"/v1/jobs", bytes.NewReader([]byte(body)))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+chaosToken)
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, raw)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &out); err != nil || out.ID == "" {
		return "", fmt.Errorf("undecodable submit response: %s", raw)
	}
	return out.ID, nil
}

func waitDone(id string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var snap struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := getJSON(fmt.Sprintf("%s/v1/jobs/%s", gatewayURL, id), &snap); err != nil {
			return fmt.Errorf("polling %s: %w", id, err)
		}
		switch snap.Status {
		case "done":
			return nil
		case "failed", "canceled":
			return fmt.Errorf("job %s ended %s: %s", id, snap.Status, snap.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after %v", id, snap.Status, timeout)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// getJSON GETs url as the chaos client (open endpoints ignore the
// token; authenticated ones need its read role).
func getJSON(url string, v any) error {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+chaosToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %.200s", url, resp.Status, raw)
	}
	return json.Unmarshal(raw, v)
}
