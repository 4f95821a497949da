package main

import (
	_ "embed"
	"fmt"
	"runtime"
	"time"

	"repro/internal/esp"
	"repro/internal/experiments"
)

// pinnedTable2 is Table II at the default seed as the simulator prints
// it (experiments.TableII). EXPERIMENTS.md quotes the same rows.
//
//go:embed table2_seed5.txt
var pinnedTable2 string

// deepSeeds is how many submission orders one run cycles the
// replicated point through. Its cost depends on the order, so a run
// reports the median over several orders rather than one.
const deepSeeds = 8

// deepOpts is the replicated Dyn-HP point: the Table I mix ×10 on 128
// nodes, every job submitted at t=0, so each scheduling iteration plans
// against a ~2k-deep queue.
func deepOpts(seed int64) esp.GenOpts {
	o := esp.DefaultOpts()
	o.Seed = seed
	o.Repeat = 10
	o.TotalCores = 128 * 8
	o.InitialBatch = 10 * 228
	return o
}

// Jobs per simulated run: Table I's 228 regular jobs plus the two Z
// jobs, and the replicated point's ten copies of the regular mix.
const (
	espJobs  = 230
	deepJobs = 10*228 + 2
)

// runESPSim measures the simulated ESP: the four Table II
// configurations at the default seed (checked against the pinned copy),
// alternating with the replicated Dyn-HP point at the run's seed.
func runESPSim(cfg Config) *Report {
	rep := newReport()
	table2Opts := esp.DefaultOpts()
	if cfg.Short {
		table2Opts.Seed = cfg.Seed
	}

	// Set-up is generating both workloads; it is repeated and the median
	// reported.
	const setups = 15
	_, setupS, err := setUp(setups, func() (*esp.Workload, error) {
		w := esp.Generate(deepOpts(cfg.Seed * deepSeeds))
		if n := len(esp.Generate(table2Opts).Items); n != espJobs {
			return nil, fmt.Errorf("Table I workload has %d jobs, want %d", n, espJobs)
		}
		if len(w.Items) != deepJobs {
			return nil, fmt.Errorf("replicated workload has %d jobs, want %d", len(w.Items), deepJobs)
		}
		return w, nil
	}, func(*esp.Workload) {})
	if err != nil {
		rep.Checkf(false, "esp-sim: set-up: %v", err)
		return rep
	}
	rep.Set("setup_s", setupS, "s", setups)

	var tracer *Tracer
	phase := func(seconds float64) *espPhase {
		ph := &espPhase{}
		start := time.Now()
		defer func() { ph.elapsed = time.Since(start) }()
		end := deadline(seconds)
		for first := true; first || time.Now().Before(end); first = false {
			settle()
			ph.table2(rep, tracer, table2Opts, !cfg.Short)
			if cfg.Short {
				// Determinism: the same seed reproduces Table II exactly.
				ph.table2(rep, tracer, table2Opts, false)
				if len(ph.tables) == 2 {
					rep.Checkf(ph.tables[0] == ph.tables[1], "esp-sim: Table II at seed %d differs between two runs", table2Opts.Seed)
				}
				return ph
			}
			if ph.t2.N()%4 == 1 {
				settle()
				ph.deep(rep, tracer, cfg.Seed*deepSeeds+int64(ph.deepT.N()%deepSeeds))
			}
		}
		return ph
	}
	if !cfg.Trace {
		ph := phase(cfg.Seconds)
		ph.report(rep)
		if !cfg.Short {
			// The last results stay live, so the heap holds one full
			// Table II and one replicated point's records and traces.
			rep.Set("heap_inuse_mb", heapInuseMB(), "MB", 0)
			runtime.KeepAlive(ph.lastT2)
			runtime.KeepAlive(ph.lastDeep)
		}
		return rep
	}
	base := phase(cfg.Seconds / 2)
	tracer = NewTracer(1 << 12)
	ph := phase(cfg.Seconds / 2)
	ph.report(rep)
	rep.Spans = tracer.Spans()
	reportOverhead(rep, "esp_table2", &base.t2, &ph.t2)
	reportShares(rep, rep.Spans)
	return rep
}

type espPhase struct {
	t2, deepT, gen Sample
	run            map[string]*Sample
	iters          uint64
	attempts       int
	satisfied      int
	tables         []string
	deepJobs       int
	elapsed        time.Duration
	lastT2         []*experiments.ESPResult
	lastDeep       *experiments.ESPResult
}

// table2 runs the four configurations once; pin checks the result
// against the pinned Table II.
func (ph *espPhase) table2(rep *Report, tr *Tracer, opts esp.GenOpts, pin bool) {
	if ph.run == nil {
		ph.run = map[string]*Sample{}
	}
	op := int64(ph.t2.N())
	g := tr.Begin("esp.generate", -1, op)
	t0 := time.Now()
	w := esp.Generate(opts)
	ph.gen.Add(time.Since(t0))
	tr.End(g)
	rep.Checkf(len(w.Items) == espJobs, "esp-sim: generated %d jobs, want %d", len(w.Items), espJobs)

	root := tr.Begin("op.table2", -1, op)
	var results []*experiments.ESPResult
	start := time.Now()
	for _, c := range experiments.StandardConfigs() {
		sp := tr.Begin("experiments.run_esp."+c.Name, root, op)
		t := time.Now()
		r := experiments.RunESP(c, opts)
		d := time.Since(t)
		tr.End(sp)
		s := ph.run[c.Name]
		if s == nil {
			s = &Sample{}
			ph.run[c.Name] = s
		}
		s.Add(d)
		ph.iters += r.Iterations
		if c.Dynamic {
			ph.attempts += r.GrantAttempts
			ph.satisfied += r.GrantsSatisfied
		}
		rep.Checkf(r.Summary.Jobs == espJobs, "esp-sim: %s finished %d jobs, want %d", c.Name, r.Summary.Jobs, espJobs)
		rep.Checkf(c.Dynamic || r.GrantAttempts == 0, "esp-sim: Static saw %d dynamic requests", r.GrantAttempts)
		results = append(results, r)
	}
	ph.t2.Add(time.Since(start))
	tr.End(root)
	ph.lastT2 = results
	table := experiments.TableII(results)
	ph.tables = append(ph.tables, table)
	if pin {
		rep.Checkf(table == pinnedTable2, "esp-sim: Table II at seed %d differs from the pinned copy:\n%s", opts.Seed, table)
	}
}

// deep runs the replicated Dyn-HP point once.
func (ph *espPhase) deep(rep *Report, tr *Tracer, seed int64) {
	hp := experiments.StandardConfigs()[1]
	op := int64(ph.deepT.N())
	root := tr.Begin("op.deep", -1, op)
	sp := tr.Begin("experiments.run_esp.deep", root, op)
	t := time.Now()
	r := experiments.RunESP(hp, deepOpts(seed))
	ph.deepT.Add(time.Since(t))
	tr.End(sp)
	tr.End(root)
	rep.Checkf(r.Summary.Jobs == deepJobs, "esp-sim: deep point finished %d jobs, want %d", r.Summary.Jobs, deepJobs)
	ph.deepJobs += r.Summary.Jobs
	ph.lastDeep = r
}

func (ph *espPhase) report(rep *Report) {
	n := ph.t2.N()
	rep.SetQuantiles("esp_table2", &ph.t2, 1e6, "ms")
	rep.Set("esp_table2_ms", ph.t2.Quantile(0.5)/1e6, "ms", n)
	if ph.deepT.N() > 0 {
		rep.Set("esp_deep_ms", ph.deepT.Quantile(0.5)/1e6, "ms", ph.deepT.N())
	}
	rep.Set("esp.generate_ms", ph.gen.Quantile(0.5)/1e6, "ms", ph.gen.N())
	for name, s := range ph.run {
		rep.Set("experiments.run_esp_ms."+name, s.Quantile(0.5)/1e6, "ms", s.N())
	}
	if n > 0 {
		rep.Set("core.iterations", float64(ph.iters)/float64(n), "count", n)
		rep.Set("core.iterations_per_op", float64(ph.iters)/float64(n), "count", n)
		rep.Set("core.us_per_iteration", ph.t2.Quantile(0.5)/1e3/(float64(ph.iters)/float64(n)), "us", n)
	}
	if ph.attempts > 0 {
		rep.Set("core.grant_ratio", float64(ph.satisfied)/float64(ph.attempts), "ratio", ph.attempts)
	}
	jobs := float64(n*4*espJobs + ph.deepJobs)
	rep.Set("sim_jobs_per_s", jobs/ph.elapsed.Seconds(), "1/s", n+ph.deepT.N())
}
