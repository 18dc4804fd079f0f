package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"lvp/client"
	"lvp/internal/bench"
	"lvp/internal/dist"
	"lvp/internal/exp"
	"lvp/internal/locality"
	"lvp/internal/lvp"
	"lvp/internal/obs"
	"lvp/internal/prog"
	"lvp/internal/serve"
)

// The serve workload runs lvpd in process on a loopback listener with an
// in-memory content-addressed store, driven as a closed loop by one client
// per CPU: each client waits for a job's last NDJSON line before it submits
// its next job. The daemon runs one job per client at a time, each job's
// cells one after another. The run is a sequence of rounds. Each round starts
// a fresh server and store (the set-up), then every client works through
// its seeded job list and the round ends when the last client is done.
//
// A round's cold jobs cover every benchmark once, in seeded order: the 620
// and the 21164, each without LVP and with one seeded LVP configuration,
// plus, in a seeded quarter of the jobs each, a predictor-zoo cell and a
// locality cell. About a third of the jobs are hit jobs: after every
// second cold job the same client repeats one of its own earlier jobs,
// whose cells are then all in the store. Hit jobs spend their time in serve
// and dist; cold jobs pay for the engine. The share is kept away from one
// half so that the median job falls inside the cold group rather than on
// the gap between the two groups.

// serveJobTimeout bounds one job, submit to last line.
const serveJobTimeout = 60 * time.Second

// serveJob is one job of a client's list and what it measured.
type serveJob struct {
	spec client.JobSpec
	hit  bool
	// measured
	submit, firstCell, latency time.Duration
	events                     []client.Event
	state                      string
	err                        error
}

// serveRound is what one round measured.
type serveRound struct {
	setup, wall time.Duration
	jobs        []*serveJob
	snap        obs.Snapshot
}

func runServe(o options) (*outcome, error) {
	benches := bench.Names()
	if o.tiny {
		benches = benches[:3]
	}
	out := &outcome{}
	var rounds, traced []*serveRound
	begin := time.Now()
	for r := 0; len(rounds) == 0 || (o.trace && len(traced) == 0) || time.Since(begin) < o.budget(); r++ {
		rng := rand.New(rand.NewPCG(o.seed, uint64(r)))
		lists := serveJobs(rng, benches, o.workers)
		settle()
		rd, err := runRound(o, lists)
		if err != nil {
			return nil, err
		}
		if o.trace && len(traced) < len(rounds) {
			traced = append(traced, rd)
		} else {
			rounds = append(rounds, rd)
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	all := append(slices.Clone(rounds), traced...)
	records, err := checkServe(o, out, all)
	if err != nil {
		return nil, err
	}

	var setups, walls, lat, hitLat []float64
	var instr int64
	var jobs int
	for _, rd := range rounds {
		setups = append(setups, secs(rd.setup))
		walls = append(walls, secs(rd.wall))
		instr += rd.snap.Counters["sim620.instructions"] + rd.snap.Counters["sim21164.instructions"]
		for _, j := range rd.jobs {
			lat = append(lat, ms(j.latency))
			if j.hit {
				hitLat = append(hitLat, ms(j.latency))
			}
		}
		jobs += len(rd.jobs)
	}
	fmt.Fprintf(o.info, "# serve: %d rounds (+%d traced), %d jobs timed, %d of them hit jobs, %d clients\n",
		len(rounds), len(traced), len(lat), len(hitLat), o.workers)
	if !o.trace {
		out.values = map[string]float64{
			"setup_s":        median(setups),
			"wall_s":         median(walls),
			"minst_per_s":    float64(instr) / sum(walls) / 1e6,
			"peak_rss_mb":    rss,
			"job_p50_ms":     median(lat),
			"job_p90_ms":     percentile(lat, 0.9),
			"hit_job_p50_ms": median(hitLat),
			"jobs_per_s":     float64(jobs) / sum(walls),
		}
		return out, nil
	}

	v := newLayerValues()
	var submit, first, queueWait, tracedWalls []float64
	var rejected, hits, misses, puts int64
	phase := func(s obs.Snapshot, name string) float64 {
		return float64(s.Timers["phase."+name].TotalNS)
	}
	var vmNS, annNS, zooNS, s620NS, s164NS, loads, i620, i164 float64
	for _, rd := range traced {
		tracedWalls = append(tracedWalls, secs(rd.wall))
		for _, j := range rd.jobs {
			submit = append(submit, ms(j.submit))
			first = append(first, ms(j.firstCell))
		}
		s := rd.snap
		queueWait = append(queueWait, float64(s.Histograms["serve.job.queue_wait_ns"].P50)/1e6)
		vmNS += phase(s, "trace")
		annNS += phase(s, "annotate")
		zooNS += phase(s, "zoo")
		s620NS += phase(s, "sim620")
		s164NS += phase(s, "sim21164")
		loads += float64(s.Counters["lvp.loads"])
		i620 += float64(s.Counters["sim620.instructions"])
		i164 += float64(s.Counters["sim21164.instructions"])
	}
	var cacheHits, cacheGets float64
	for _, rd := range all {
		s := rd.snap
		rejected += s.Counters["serve.jobs.rejected_full"] + s.Counters["serve.jobs.rejected_draining"] +
			s.Counters["serve.jobs.invalid"] + s.Counters["serve.tenant.rejected"]
		hits += s.Counters["dist.store.hit"]
		misses += s.Counters["dist.store.miss"]
		puts += s.Counters["dist.store.put"]
		for _, c := range []string{"traces", "annotations", "sims620", "sims21164"} {
			cacheHits += float64(s.Gauges["cache."+c+".hits"].Value)
			cacheGets += float64(s.Gauges["cache."+c+".gets"].Value)
		}
	}
	n := float64(len(traced))
	v["vm.busy_s"] = vmNS / 1e9 / n
	v["vm.ns_per_record"] = ratio(vmNS, float64(records)*n)
	v["lvp.busy_s"] = annNS / 1e9 / n
	v["lvp.ns_per_load"] = ratio(annNS, loads)
	v["lvp.zoo_busy_s"] = zooNS / 1e9 / n
	v["ppc620.busy_s"] = s620NS / 1e9 / n
	v["ppc620.ns_per_record"] = ratio(s620NS, i620)
	v["axp21164.busy_s"] = s164NS / 1e9 / n
	v["axp21164.ns_per_record"] = ratio(s164NS, i164)
	v["exp.cache_hit_ratio"] = ratio(cacheHits, cacheGets)
	v["exp.pool_occupancy"] = ratio((vmNS+annNS+zooNS+s620NS+s164NS)/1e9/n, float64(o.workers)*mean(tracedWalls))
	v["serve.submit_ms_p50"] = median(submit)
	v["serve.first_cell_ms_p50"] = median(first)
	v["serve.queue_wait_ms_p50"] = median(queueWait)
	v["serve.rejected"] = float64(rejected)
	v["dist.store_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	v["dist.store_puts"] = float64(puts) / float64(len(all))
	reconcile(o, v, o.workers, mean(walls), mean(tracedWalls))
	out.values = v
	return out, nil
}

// serveJobs builds each client's job list for one round.
func serveJobs(rng *rand.Rand, benches []string, clients int) [][]*serveJob {
	order := rng.Perm(len(benches))
	families := lvp.Families()
	lists := make([][]*serveJob, clients)
	colds := make([][]client.JobSpec, clients)
	for k, i := range order {
		spec := client.JobSpec{
			Benchmarks: []string{benches[i]},
			Machines:   []string{serve.Machine620, serve.Machine21164},
			Configs:    []string{serve.ConfigNone, lvp.Configs[rng.IntN(len(lvp.Configs))].Name},
		}
		if rng.IntN(4) == 0 {
			spec.Predictors = []string{families[rng.IntN(len(families))].Name}
		}
		if rng.IntN(4) == 0 {
			spec.LocalityTargets = []string{prog.Targets[rng.IntN(len(prog.Targets))].Name}
			spec.LocalityDepths = []int{1, 16}
		}
		c := k % clients
		colds[c] = append(colds[c], spec)
		lists[c] = append(lists[c], &serveJob{spec: spec})
		if k%2 == 1 {
			lists[c] = append(lists[c], &serveJob{spec: colds[c][rng.IntN(len(colds[c]))], hit: true})
		}
	}
	return lists
}

// runRound starts a fresh server, runs every client's list against it as a
// closed loop, reads the server's metrics and stops it.
func runRound(o options, lists [][]*serveJob) (*serveRound, error) {
	rd := &serveRound{}
	start := time.Now()
	reg := obs.NewRegistry()
	store, err := dist.NewStore(dist.StoreConfig{Metrics: reg})
	if err != nil {
		return nil, err
	}
	// One runner per client and one worker per job: as many cells run at
	// once as there are CPUs, so the engine's phase timers read busy time.
	m := serve.NewManager(serve.Config{Metrics: reg, Store: store, Runners: len(lists), Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	base := "http://" + ln.Addr().String()
	hs := &http.Server{Handler: serve.NewHandler(m)}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxIdleConnsPerHost: len(lists) + 1}
	hc := &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return errors.Join(err, m.Shutdown(ctx))
	}
	cl, err := client.New(base)
	if err != nil {
		return nil, errors.Join(err, stop())
	}
	cl = cl.WithHTTPClient(hc).WithRetry(client.RetryPolicy{MaxAttempts: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = cl.Ready(ctx)
	cancel()
	if err != nil {
		return nil, errors.Join(err, stop())
	}
	rd.setup = time.Since(start)

	start = time.Now()
	var wg sync.WaitGroup
	for _, list := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range list {
				runJob(cl, j)
			}
		}()
	}
	wg.Wait()
	rd.wall = time.Since(start)
	for _, list := range lists {
		rd.jobs = append(rd.jobs, list...)
	}

	rd.snap, err = readMetrics(hc, base)
	return rd, errors.Join(err, stop())
}

// runJob submits one job and follows its result stream to the last line.
func runJob(cl *client.Client, j *serveJob) {
	ctx, cancel := context.WithTimeout(context.Background(), serveJobTimeout)
	defer cancel()
	start := time.Now()
	st, err := cl.Submit(ctx, j.spec)
	j.submit = time.Since(start)
	if err != nil {
		j.err = err
		j.latency = j.submit
		return
	}
	j.err = cl.Stream(ctx, st.ID, func(ev client.Event) error {
		switch ev.Type {
		case "cell":
			if len(j.events) == 0 {
				j.firstCell = time.Since(start)
			}
			j.events = append(j.events, ev)
		case "done":
			j.state = ev.State
			if ev.Error != "" {
				return errors.New(ev.Error)
			}
		}
		return nil
	})
	j.latency = time.Since(start)
}

func readMetrics(hc *http.Client, base string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// checkServe is the untimed correctness check: every job stream is
// complete, in index order, names the spec's cells and carries results
// byte-identical to the same cells computed directly on an exp.Suite; every
// hit job repeats only cells computed earlier in its round. It returns the
// record count of the traces one round generates.
func checkServe(o options, out *outcome, rounds []*serveRound) (int64, error) {
	cells := map[string]client.Cell{}
	for _, rd := range rounds {
		for _, j := range rd.jobs {
			for _, c := range j.spec.Cells() {
				cells[c.String()] = c
			}
		}
	}
	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	ref := exp.NewSuiteParallel(1, 1)
	want := make([][]byte, len(keys))
	err := fanOut(o.workers, len(keys), func(i int) error {
		b, err := directCell(ref, cells[keys[i]])
		want[i] = b
		return err
	})
	if err != nil {
		return 0, err
	}
	wantBy := map[string][]byte{}
	for i, k := range keys {
		wantBy[k] = want[i]
	}

	for _, rd := range rounds {
		done := map[string]bool{}
		for _, j := range rd.jobs {
			out.attempted++
			if msg := checkJob(j, wantBy, done); msg != "" {
				o.fail(out, "serve job %v: %s", j.spec.Benchmarks, msg)
			}
		}
	}

	// The traces one round generates: both targets of every benchmark.
	var records int64
	benches := map[string]bool{}
	for _, j := range rounds[0].jobs {
		benches[j.spec.Benchmarks[0]] = true
	}
	for b := range benches {
		for _, tg := range prog.Targets {
			t, err := ref.Trace(b, tg)
			if err != nil {
				return 0, err
			}
			records += int64(len(t.Records))
		}
	}
	return records, nil
}

// checkJob returns why one job failed its checks, or "". done collects the
// cells of jobs checked earlier in the same client order; hit jobs must
// need nothing else.
func checkJob(j *serveJob, want map[string][]byte, done map[string]bool) string {
	cells := j.spec.Cells()
	if j.hit {
		for _, c := range cells {
			if !done[c.String()] {
				return fmt.Sprintf("hit job needs cell %s that no earlier job computed", c)
			}
		}
	}
	switch {
	case j.err != nil:
		return j.err.Error()
	case j.state != client.StateDone:
		return "ended " + j.state
	case len(j.events) != len(cells):
		return fmt.Sprintf("stream has %d cells, spec has %d", len(j.events), len(cells))
	}
	for i, ev := range j.events {
		if ev.Index != i || ev.Cell == nil || ev.Cell.String() != cells[i].String() {
			return fmt.Sprintf("line %d is cell %d %v, want %s", i, ev.Index, ev.Cell, cells[i])
		}
		if ev.Error != "" {
			return fmt.Sprintf("cell %d failed: %s", i, ev.Error)
		}
		if !bytes.Equal(ev.Result, want[cells[i].String()]) {
			return fmt.Sprintf("cell %d (%s) differs from exp.Suite", i, cells[i])
		}
	}
	for _, c := range cells {
		done[c.String()] = true
	}
	return ""
}

// directCell computes one cell on the suite the way lvpd's engine defines
// it: the JSON of the struct exp.Suite returns.
func directCell(s *exp.Suite, c client.Cell) ([]byte, error) {
	switch c.Kind {
	case "sim":
		var cfg *lvp.Config
		if c.Config != serve.ConfigNone {
			lc, err := lvp.ByName(c.Config)
			if err != nil {
				return nil, err
			}
			cfg = &lc
		}
		if c.Machine == serve.Machine21164 {
			st, err := s.Sim21164(c.Bench, cfg)
			if err != nil {
				return nil, err
			}
			return json.Marshal(st)
		}
		st, err := s.Sim620(c.Bench, c.Machine == serve.Machine620Plus, cfg)
		if err != nil {
			return nil, err
		}
		return json.Marshal(st)
	case "locality":
		for _, tg := range prog.Targets {
			if tg.Name == c.Target {
				t, err := s.Trace(c.Bench, tg)
				if err != nil {
					return nil, err
				}
				return json.Marshal(locality.Measure(t, locality.DefaultEntries, c.Depths...))
			}
		}
		return nil, fmt.Errorf("unknown target %q", c.Target)
	case "zoo":
		z, err := s.ZooCell(c.Bench, c.Predictor)
		if err != nil {
			return nil, err
		}
		return json.Marshal(z)
	}
	return nil, fmt.Errorf("unknown cell kind %q", c.Kind)
}
