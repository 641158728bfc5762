package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sdpcm"
	"sdpcm/internal/serve"
)

// The serve-sweep workload: an in-process sweep service (store, manager,
// HTTP server on a loopback port) and one closed-loop client that submits
// the registry's simulation-backed experiments one at a time, follows each
// job's SSE stream to its terminal status and fetches its result table.
// A cold sweep starts on an empty store; warm rounds restart the service on
// the populated store and resubmit the same jobs.

// sweepExperiments are the simulation-backed experiments, in registry order.
var sweepExperiments = []string{"fig4", "fig5", "fig11", "fig12", "fig13", "fig14",
	"fig15", "fig16", "fig17", "fig18", "fig19", "fig-topo2"}

// The golden flag set of scripts/golden.sh.
const (
	sweepRefs   = 2000
	sweepCores  = 4
	sweepMemMB  = 128
	sweepRegion = 256
)

var sweepBenchmarks = []string{"gemsFDTD", "lbm", "mcf"}

const (
	// setupRepsPerSweep is how many service starts precede each cold sweep.
	setupRepsPerSweep = 5
	// minColdSweeps is the fewest cold sweeps a run reports.
	minColdSweeps = 3
	// warmRoundsPerSweep restarts the service this often on each cold store.
	warmRoundsPerSweep = 5
	// minWarmJobs gives the warm latency's p95 ten samples beyond it.
	minWarmJobs = 200
)

func jobSpec(exp string, seed uint64) serve.JobSpec {
	return serve.JobSpec{Experiment: exp, RefsPerCore: sweepRefs, Cores: sweepCores,
		MemMB: sweepMemMB, RegionPages: sweepRegion, Benchmarks: sweepBenchmarks, Seed: seed}
}

// service is one in-process sdpcm-serve at program defaults.
type service struct {
	mgr    *serve.Manager
	srv    *serve.Server
	client *http.Client
	base   string
}

// startService opens the store at dir and serves it on a loopback port,
// returning once /readyz answers 200.
func startService(client *http.Client, dir string) (*service, error) {
	st, err := serve.OpenDiskStore(dir)
	if err != nil {
		return nil, err
	}
	mgr := serve.NewManager(serve.ManagerConfig{Store: st})
	srv := serve.NewServer(mgr, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	s := &service{mgr: mgr, srv: srv, client: client, base: "http://" + addr}
	for i := 0; ; i++ {
		err = s.do(http.MethodGet, "/readyz", nil, http.StatusOK, nil)
		if err == nil {
			return s, nil
		}
		if i == 1000 {
			s.stop()
			return nil, fmt.Errorf("service never became ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the manager and closes the HTTP side.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := s.mgr.Drain(ctx)
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	s.client.CloseIdleConnections()
	return err
}

// do sends one request and hands the body of a want-status response to read.
func (s *service) do(method, path string, body []byte, want int, read func(io.Reader) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if read == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return read(resp.Body)
}

// jobOutcome is one job as the client saw it.
type jobOutcome struct {
	table                  string
	status                 serve.JobStatus
	points                 []serve.PointRecord
	submit, stream, result time.Duration
	latency                time.Duration // submit → result received
}

// begin and end record a span when tracing and do nothing otherwise.
func begin(tr *Tracer, name string, parent int) int {
	if tr == nil {
		return 0
	}
	return tr.Begin(name, parent)
}

func end(tr *Tracer, id int) {
	if tr != nil {
		tr.End(id, 1)
	}
}

// runJob submits one job, follows its stream to the terminal status and
// fetches the result. Every request, and the job itself, is one operation.
func (s *service) runJob(b *bench, tr *Tracer, parent int, spec serve.JobSpec) (jobOutcome, error) {
	var out jobOutcome
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	job := begin(tr, "job", parent)
	defer end(tr, job)
	start := time.Now()

	var st serve.JobStatus
	id := begin(tr, "serve.submit", job)
	err = s.do(http.MethodPost, "/api/v1/jobs", body, http.StatusAccepted,
		func(r io.Reader) error { return json.NewDecoder(r).Decode(&st) })
	end(tr, id)
	out.submit = time.Since(start)
	if b.ops.note(err); err != nil {
		return out, err
	}

	t := time.Now()
	id = begin(tr, "serve.stream", job)
	err = s.do(http.MethodGet, "/api/v1/jobs/"+st.ID+"/stream", nil, http.StatusOK,
		func(r io.Reader) (err error) { out.points, out.status, err = readSSE(r); return err })
	end(tr, id)
	out.stream = time.Since(t)
	if b.ops.note(err); err != nil {
		return out, err
	}
	if out.status.State != serve.StateDone {
		err = fmt.Errorf("job %s (%s) ended %s: %s", st.ID, spec.Experiment, out.status.State, out.status.Error)
	}
	if b.ops.note(err); err != nil {
		return out, err
	}

	t = time.Now()
	id = begin(tr, "serve.result", job)
	err = s.do(http.MethodGet, "/api/v1/jobs/"+st.ID+"/result", nil, http.StatusOK,
		func(r io.Reader) error {
			data, err := io.ReadAll(r)
			out.table = string(data)
			return err
		})
	end(tr, id)
	out.result = time.Since(t)
	out.latency = time.Since(start)
	b.ops.note(err)
	return out, err
}

// readSSE reads a job stream to its end: the point records and the last
// status event.
func readSSE(r io.Reader) ([]serve.PointRecord, serve.JobStatus, error) {
	var points []serve.PointRecord
	var last serve.JobStatus
	sawStatus := false
	event := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "point":
			var p serve.PointRecord
			if err := json.Unmarshal([]byte(data), &p); err != nil {
				return nil, last, fmt.Errorf("point event: %w", err)
			}
			points = append(points, p)
		case "status":
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				return nil, last, fmt.Errorf("status event: %w", err)
			}
			sawStatus = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, last, err
	}
	if !sawStatus {
		return nil, last, fmt.Errorf("stream carried no status event")
	}
	return points, last, nil
}

// sweepResult is one pass over every experiment.
type sweepResult struct {
	wall   time.Duration // first submit → last result
	jobs   []jobOutcome
	tables map[string]string
	stats  sdpcm.SweepStats // the manager's executor counters after the pass
}

// sweep restarts the service on the store at dir and runs every experiment
// once, in order.
func sweep(b *bench, tr *Tracer, name string, client *http.Client, dir string) (sweepResult, error) {
	svc, err := startService(client, dir)
	if err != nil {
		return sweepResult{}, err
	}
	res := sweepResult{tables: make(map[string]string)}
	root := begin(tr, name, 0)
	start := time.Now()
	for _, exp := range sweepExperiments {
		out, err := svc.runJob(b, tr, root, jobSpec(exp, b.seed))
		if err != nil {
			svc.stop()
			return res, err
		}
		res.jobs = append(res.jobs, out)
		res.tables[exp] = out.table
	}
	res.wall = time.Since(start)
	end(tr, root)
	res.stats = svc.mgr.ExecStats()
	return res, svc.stop()
}

// points is the number of sweep points the pass asked for.
func (r sweepResult) points() int {
	n := 0
	for _, j := range r.jobs {
		n += j.status.Points
	}
	return n
}

// sweepChecks accumulates the serve-sweep output checks over a run.
type sweepChecks struct {
	cold      map[string]string // the first cold sweep's tables
	coldSame  bool              // every cold sweep reproduced them
	warmSame  bool              // every warm table equals its cold table
	warmFirst bool              // first warm job after a restart: all points from the store
	warmNoSim bool              // no warm job simulated
	warmJobs  int
}

func newSweepChecks() *sweepChecks {
	return &sweepChecks{coldSame: true, warmSame: true, warmFirst: true, warmNoSim: true}
}

func (c *sweepChecks) noteCold(r sweepResult) {
	if c.cold == nil {
		c.cold = r.tables
		return
	}
	for exp, t := range r.tables {
		c.coldSame = c.coldSame && t == c.cold[exp]
	}
}

func (c *sweepChecks) noteWarm(r sweepResult) {
	for i, j := range r.jobs {
		exp := sweepExperiments[i]
		c.warmSame = c.warmSame && j.table == c.cold[exp]
		c.warmNoSim = c.warmNoSim && j.status.SimRuns == 0
		if i == 0 {
			c.warmFirst = c.warmFirst && j.status.SimRuns == 0 && j.status.StoreHits == j.status.Points && j.status.Points > 0
		}
		c.warmJobs++
	}
}

func (c *sweepChecks) report(b *bench) {
	b.check(c.coldSame, "every cold sweep served the same %d tables", len(c.cold))
	b.check(c.warmSame, "warm tables are byte-equal to cold tables (%d warm jobs)", c.warmJobs)
	b.check(c.warmFirst, "every first warm job after a restart has sim_runs == 0 and store_hits == points")
	b.check(c.warmNoSim, "no warm job simulated")
	if b.seed != 42 {
		return
	}
	same := len(c.cold) == len(sweepExperiments)
	for _, exp := range sweepExperiments {
		golden, err := os.ReadFile(filepath.Join("testdata", "golden", exp+".txt"))
		same = same && err == nil && string(golden) == c.cold[exp]+"\n"
	}
	b.check(same, "cold tables at seed 42 are byte-equal to testdata/golden/<exp>.txt (served body + \"\\n\")")
}

func runServeSweep(b *bench) error {
	tmp, err := os.MkdirTemp(b.out, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	client := &http.Client{Timeout: 150 * time.Second}
	fresh := func() (string, error) { return os.MkdirTemp(tmp, "store-") }
	if b.trace {
		return tracedServeSweep(b, client, fresh)
	}

	checks := newSweepChecks()
	var setup, cold, warm []float64
	points := -1
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for len(cold) < minColdSweeps || time.Now().Before(deadline) || len(warm) < minWarmJobs {
		// Set-up: store open, manager and server start until /readyz
		// answers, a few reps before each cold sweep.
		for i := 0; i < setupRepsPerSweep; i++ {
			wall, err := timedStart(b, client, fresh)
			if err != nil {
				return err
			}
			setup = append(setup, wall.Seconds())
		}
		dir, err := fresh()
		if err != nil {
			return err
		}
		runtime.GC()
		r, err := sweep(b, nil, "sweep.cold", client, dir)
		if err != nil {
			return err
		}
		cold = append(cold, r.wall.Seconds())
		checks.noteCold(r)
		if points >= 0 && r.points() != points {
			b.check(false, "cold sweeps asked for %d and %d points", points, r.points())
		}
		points = r.points()
		for i := 0; i < warmRoundsPerSweep; i++ {
			w, err := sweep(b, nil, "sweep.warm", client, dir)
			if err != nil {
				return err
			}
			checks.noteWarm(w)
			for _, j := range w.jobs {
				warm = append(warm, float64(j.latency)/float64(time.Millisecond))
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	checks.report(b)

	pointRefs := float64(points * sweepRefs * sweepCores)
	b.put("refs_per_s", pointRefs/median(cold), fmt.Sprintf(
		"point refs of one cold sweep (%d points × %d refs × %d cores) ÷ median cold_sweep_s", points, sweepRefs, sweepCores))
	b.put("setup_s", median(setup), fmt.Sprintf("median of %d service starts (store open → /readyz 200)", len(setup)))
	b.put("peak_rss_mb", peakRSSMB(), "process peak RSS (getrusage), n=1")
	b.put("cold_sweep_s", median(cold), fmt.Sprintf("median of %d cold sweeps of %d jobs (IQR %.3f–%.3f s)",
		len(cold), len(sweepExperiments), quantile(cold, 0.25), quantile(cold, 0.75)))
	b.put("warm_job_p50_ms", median(warm), fmt.Sprintf("median submit→result of %d warm jobs", len(warm)))
	p, v, ok := tailPercentile(warm)
	if !ok || p < 95 {
		return fmt.Errorf("only %d warm jobs: no p95 with ten samples beyond it", len(warm))
	}
	b.put("warm_job_p95_ms", quantile(warm, 0.95), fmt.Sprintf("p95 of %d warm jobs, %d beyond it (highest qualifying: p%g = %.3f ms)",
		len(warm), beyond(len(warm), 95), p, v))
	return nil
}

// timedStart starts and stops a service on a fresh store and returns the
// time from store open until /readyz answered.
func timedStart(b *bench, client *http.Client, fresh func() (string, error)) (time.Duration, error) {
	dir, err := fresh()
	if err != nil {
		return 0, err
	}
	runtime.GC()
	start := time.Now()
	svc, err := startService(client, dir)
	wall := time.Since(start)
	b.ops.note(err)
	if err != nil {
		return 0, err
	}
	return wall, svc.stop()
}

// tracedServeSweep is the --trace 1 run of serve-sweep.
func tracedServeSweep(b *bench, client *http.Client, fresh func() (string, error)) error {
	tr := NewTracer(fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	checks := newSweepChecks()

	// The first sweep warms the process; the second is the untraced base.
	var plain sweepResult
	for i := 0; i < 2; i++ {
		dir, err := fresh()
		if err != nil {
			return err
		}
		if plain, err = sweep(b, nil, "sweep.cold", client, dir); err != nil {
			return err
		}
		checks.noteCold(plain)
	}

	dir, err := fresh()
	if err != nil {
		return err
	}
	cold, err := sweep(b, tr, "sweep.cold", client, dir)
	if err != nil {
		return err
	}
	checks.noteCold(cold)
	warm, err := sweep(b, tr, "sweep.warm", client, dir)
	if err != nil {
		return err
	}
	checks.noteWarm(warm)
	checks.report(b)

	b.put("trace.overhead", plain.wall.Seconds()/cold.wall.Seconds(), "traced ÷ untraced cold-sweep throughput")
	var submit, stream, result []float64
	for _, j := range warm.jobs {
		submit = append(submit, float64(j.submit)/1e6)
		stream = append(stream, float64(j.stream)/1e6)
		result = append(result, float64(j.result)/1e6)
	}
	n := fmt.Sprintf("median of %d warm jobs", len(warm.jobs))
	b.put("serve.submit_ms", median(submit), "POST /api/v1/jobs, "+n)
	b.put("serve.stream_ms", median(stream), "SSE /stream to the terminal status, "+n)
	b.put("serve.result_ms", median(result), "GET /result, "+n)

	st := cold.stats
	b.put("runner.points", float64(st.Points), "cold sweep, the manager's executor counters")
	b.put("runner.sim_runs", float64(st.SimRuns), "cold sweep")
	b.put("runner.dedup_ratio", float64(st.CacheHits+st.StoreHits)/float64(max(st.Points, 1)), "(cache + store hits) ÷ points, cold sweep")
	var simulated []float64
	var busy float64
	for _, j := range cold.jobs {
		for _, p := range j.points {
			if !p.Cached && !p.Stored {
				simulated = append(simulated, p.WallMS)
				busy += p.WallMS
			}
		}
	}
	b.put("runner.point_ms", median(simulated), fmt.Sprintf("median wall of %d simulated points, as the program measured it (SSE point records)", len(simulated)))
	workers := runtime.GOMAXPROCS(0)
	b.put("runner.busy_ratio", busy/1e3/(float64(workers)*cold.wall.Seconds()),
		fmt.Sprintf("Σ simulated point wall ÷ (%d workers × cold sweep wall)", workers))

	// The durable store over the cold phase's entries: loaded from the cold
	// store, stored into a temporary store and loaded back.
	keys, results, err := coldEntries(dir)
	if err != nil {
		return err
	}
	tmpStore, err := fresh()
	if err != nil {
		return err
	}
	if err := storeProbe(b, tr, tmpStore, keys, results); err != nil {
		return err
	}

	// The simulator layers, on the sweep's own scale: mcf under
	// LazyC+PreRead+(2:3) at the golden flags, a point every cold sweep runs.
	cfg := sdpcm.SimConfig{
		Scheme:      sdpcm.AllThree(sdpcm.DefaultECPEntries, sdpcm.Tag23),
		Mix:         sdpcm.HomogeneousMix("mcf", sweepCores),
		RefsPerCore: sweepRefs,
		MemPages:    sweepMemMB * 256,
		RegionPages: sweepRegion,
		Seed:        b.seed,
	}
	if _, _, _, err := traceSim(b, tr, cfg); err != nil {
		return err
	}
	return b.writeTrace(tr)
}

// coldEntries loads every entry of the store at dir, reading each entry's
// key from its envelope.
func coldEntries(dir string) ([]string, []sdpcm.SimResult, error) {
	st, err := serve.OpenDiskStore(dir)
	if err != nil {
		return nil, nil, err
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	var keys []string
	var results []sdpcm.SimResult
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, err
		}
		var env struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", f, err)
		}
		res, ok := st.Load(env.Key)
		if !ok {
			return nil, nil, fmt.Errorf("%s: entry does not load under its own key", f)
		}
		keys = append(keys, env.Key)
		results = append(results, res)
	}
	if len(keys) == 0 {
		return nil, nil, fmt.Errorf("cold store %s holds no entries", dir)
	}
	return keys, results, nil
}
