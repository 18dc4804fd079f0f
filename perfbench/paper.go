package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"time"

	"lvp/internal/bench"
	"lvp/internal/exp"
	"lvp/internal/lvp"
	"lvp/internal/prog"
)

// The paper workload is the reproduction users run (lvpsim -exp all): every
// registered experiment at scale 1 on one cold exp.Suite whose worker pool
// has one worker per CPU. The seed permutes the order the experiments run
// in; outputs are collected in registry order, so their bytes may not
// change. Each experiment run is one operation.
//
// A "job" is one whole reproduction. Cold jobs run on a fresh suite; after
// every second cold job the same experiments run again on its now-warm
// suite, and that re-run is a hit job: every cached cell it needs was
// computed earlier in the run (the cache-bypassing sweeps recompute). Hit
// jobs are a third of all jobs, so the median job is a cold one rather
// than the gap between the two groups. Per-experiment latencies are not
// reported: which experiment pays for a shared cell depends on the seeded
// order.

// tinyExperiments is the self-test's subset of the registry.
var tinyExperiments = map[string]bool{"table1": true, "table2": true, "table5": true, "fig9": true}

// paperRep is what one untraced cold job, and its hit job if any, measured.
type paperRep struct {
	wall, hitWall time.Duration
	hit           bool
	instructions  int64
	cacheHits     int64
	cacheGets     int64
}

type paperRun struct {
	o       options
	exps    []exp.Experiment
	benches []string
	out     *outcome
	// want holds the recorded SHA-256 of each experiment's output.
	want map[string]string
	// combined is the digest of the whole reproduction's output, printed
	// once per run.
	combined string
}

func runPaper(o options) (*outcome, error) {
	p := &paperRun{o: o, out: &outcome{}, want: paperDigests, benches: bench.Names()}
	for _, e := range exp.Experiments() {
		if !o.tiny || tinyExperiments[e.Name] {
			p.exps = append(p.exps, e)
		}
	}
	if o.tiny {
		p.benches = p.benches[:2]
	}
	startup, err := startupTimes(15)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewPCG(o.seed, 0x5eed_9a9e))
	var reps []paperRep
	var tracedWalls []float64
	var log spanLog
	begin := time.Now()
	for len(reps) < 2 || (o.trace && len(tracedWalls) == 0) || time.Since(begin) < o.budget() {
		order := rng.Perm(len(p.exps))
		settle()
		if o.trace && len(tracedWalls) < len(reps)/2 {
			wall, err := p.traced(order, &log)
			if err != nil {
				return nil, err
			}
			tracedWalls = append(tracedWalls, wall)
			continue
		}
		rep, err := p.untraced(order, len(reps)%2 == 1)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	var walls, minst, jobs, hits []float64
	var measured time.Duration
	var hitsN, gets int64
	for _, r := range reps {
		walls = append(walls, secs(r.wall))
		minst = append(minst, float64(r.instructions)/secs(r.wall)/1e6)
		jobs = append(jobs, ms(r.wall))
		measured += r.wall + r.hitWall
		if r.hit {
			jobs = append(jobs, ms(r.hitWall))
			hits = append(hits, ms(r.hitWall))
		}
		hitsN += r.cacheHits
		gets += r.cacheGets
	}
	fmt.Fprintf(o.info, "# paper: %d jobs (%d cold, %d hit), %d traced reproductions, %d experiment runs; %d start-up probes\n",
		len(jobs), len(reps), len(hits), len(tracedWalls), p.out.attempted, len(startup))
	fmt.Fprintf(o.info, "# paper: cold job walls (s) %.3f; hit job walls (ms) %.0f\n", walls, hits)
	if !o.trace {
		p.out.values = map[string]float64{
			"setup_s":        median(startup),
			"wall_s":         median(walls),
			"minst_per_s":    median(minst),
			"peak_rss_mb":    rss,
			"job_p50_ms":     median(jobs),
			"job_p90_ms":     percentile(jobs, 0.9),
			"hit_job_p50_ms": median(hits),
			"jobs_per_s":     float64(len(jobs)) / measured.Seconds(),
		}
		return p.out, nil
	}
	layers := newLayerValues()
	busy, work := log.totals()
	var all time.Duration
	for _, l := range layerNames {
		layers[l.metric] = secs(busy[l.layer]) / float64(len(tracedWalls))
		all += busy[l.layer]
	}
	layers["vm.ns_per_record"] = ratio(float64(busy["vm"]), float64(work["vm"]))
	layers["lvp.ns_per_load"] = ratio(float64(busy["lvp"]), float64(work["lvp"]))
	layers["ppc620.ns_per_record"] = ratio(float64(busy["ppc620"]), float64(work["ppc620"]))
	layers["axp21164.ns_per_record"] = ratio(float64(busy["axp21164"]), float64(work["axp21164"]))
	layers["exp.cache_hit_ratio"] = ratio(float64(hitsN), float64(gets))
	layers["exp.pool_occupancy"] = ratio(secs(all), float64(o.workers)*sum(tracedWalls))
	reconcile(o, layers, o.workers, mean(walls), mean(tracedWalls))
	p.out.values = layers
	return p.out, nil
}

// untraced runs one cold reproduction and, when hit is set, every
// experiment again on the warm suite.
func (p *paperRun) untraced(order []int, hit bool) (paperRep, error) {
	s := exp.NewSuiteParallel(1, p.o.workers)
	rep := paperRep{hit: hit}
	start := time.Now()
	outs, err := p.runAll(s, order)
	rep.wall = time.Since(start)
	if err != nil {
		return rep, err
	}
	rep.instructions = s.Metrics.Counter("sim620.instructions").Value() +
		s.Metrics.Counter("sim21164.instructions").Value()
	cs := s.CacheStats()
	for _, c := range []struct{ Gets, Hits int64 }{
		{cs.Traces.Gets, cs.Traces.Hits}, {cs.Annotations.Gets, cs.Annotations.Hits},
		{cs.Sims620.Gets, cs.Sims620.Hits}, {cs.Sims21164.Gets, cs.Sims21164.Hits},
	} {
		rep.cacheGets += c.Gets
		rep.cacheHits += c.Hits
	}
	if !p.o.tiny && p.combined == "" {
		p.combined = hex.EncodeToString(sha256Of(outs))
		fmt.Fprintf(p.o.info, "# paper output sha256 %s (all experiments, registry order)\n", p.combined)
	}
	p.check(outs, "cold")
	if !hit {
		return rep, nil
	}
	start = time.Now()
	warm, err := p.runAll(s, order)
	rep.hitWall = time.Since(start)
	if err != nil {
		return rep, err
	}
	p.check(warm, "warm")
	return rep, nil
}

// runAll runs the experiments on s in the given order and returns their
// outputs in registry order.
func (p *paperRun) runAll(s *exp.Suite, order []int) ([][]byte, error) {
	outs := make([][]byte, len(p.exps))
	for _, i := range order {
		var buf bytes.Buffer
		if err := p.exps[i].Run(s, &buf); err != nil {
			return nil, fmt.Errorf("%s: %w", p.exps[i].Name, err)
		}
		outs[i] = buf.Bytes()
	}
	return outs, nil
}

// traced requests the Figure 6 / Table 6 cell grid layer by layer, so each
// call's span is that layer's self time, then runs every experiment on the
// warm suite as exp spans, one experiment per worker. It records the spans
// in log and returns the wall.
func (p *paperRun) traced(order []int, log *spanLog) (float64, error) {
	s := exp.NewSuiteParallel(1, p.o.workers)
	w := p.o.workers
	targets := []prog.Target{prog.PPC, prog.AXP}
	cfgs := append([]*lvp.Config{nil}, configPtrs()...)
	families := lvp.Families()
	if p.o.tiny {
		families = families[:2]
	}
	nb := len(p.benches)

	start := time.Now()
	err := fanOut(w, nb*len(targets), func(i int) error {
		t := time.Now()
		tr, err := s.Trace(p.benches[i/len(targets)], targets[i%len(targets)])
		if err != nil {
			return err
		}
		log.add("vm", t, int64(len(tr.Records)))
		return nil
	})
	if err == nil {
		err = fanOut(w, nb*len(targets)*len(lvp.Configs), func(i int) error {
			b, tg, c := p.benches[i/(len(targets)*len(lvp.Configs))], targets[i/len(lvp.Configs)%len(targets)], lvp.Configs[i%len(lvp.Configs)]
			t := time.Now()
			_, st, err := s.Annotation(b, tg, c)
			if err != nil {
				return err
			}
			log.add("lvp", t, int64(st.Loads))
			return nil
		})
	}
	if err == nil {
		err = fanOut(w, nb*2*len(cfgs), func(i int) error {
			b, plus, c := p.benches[i/(2*len(cfgs))], i/len(cfgs)%2 == 1, cfgs[i%len(cfgs)]
			t := time.Now()
			st, err := s.Sim620(b, plus, c)
			if err != nil {
				return err
			}
			log.add("ppc620", t, int64(st.Instructions))
			return nil
		})
	}
	if err == nil {
		err = fanOut(w, nb*len(cfgs), func(i int) error {
			t := time.Now()
			st, err := s.Sim21164(p.benches[i/len(cfgs)], cfgs[i%len(cfgs)])
			if err != nil {
				return err
			}
			log.add("axp21164", t, int64(st.Instructions))
			return nil
		})
	}
	if err == nil {
		err = fanOut(w, nb*len(families), func(i int) error {
			t := time.Now()
			if _, err := s.ZooCell(p.benches[i/len(families)], families[i%len(families)].Name); err != nil {
				return err
			}
			log.add("lvp.zoo", t, 0)
			return nil
		})
	}
	if err != nil {
		return 0, err
	}

	// Every experiment on the warm suite: one per worker, each on a serial
	// view of the suite so an exp span is one worker's busy time.
	view := *s
	view.Workers = 1
	outs := make([][]byte, len(p.exps))
	err = fanOut(w, len(order), func(k int) error {
		i := order[k]
		var buf bytes.Buffer
		t := time.Now()
		if err := p.exps[i].Run(&view, &buf); err != nil {
			return fmt.Errorf("%s: %w", p.exps[i].Name, err)
		}
		log.add("exp", t, 0)
		outs[i] = buf.Bytes()
		return nil
	})
	if err != nil {
		return 0, err
	}
	wall := time.Since(start)
	p.check(outs, "traced")

	return secs(wall), nil
}

// configPtrs returns the paper's four LVP configurations by pointer.
func configPtrs() []*lvp.Config {
	out := make([]*lvp.Config, len(lvp.Configs))
	for i, c := range lvp.Configs {
		out[i] = &c
	}
	return out
}

func sha256Of(outs [][]byte) []byte {
	h := sha256.New()
	for _, b := range outs {
		h.Write(b)
	}
	return h.Sum(nil)
}

// check compares each experiment's output with its recorded digest; every
// experiment run counts as one operation.
func (p *paperRun) check(outs [][]byte, phase string) {
	for i, e := range p.exps {
		p.out.attempted++
		sum := sha256.Sum256(outs[i])
		got := hex.EncodeToString(sum[:])
		if want, ok := p.want[e.Name]; !ok || got != want {
			p.o.fail(p.out, "paper %s output of %s: sha256 %s, recorded %s", phase, e.Name, got, want)
		}
	}
}
