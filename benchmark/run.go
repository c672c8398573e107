package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"aware/internal/api"
	"aware/internal/client"
)

// runWorkload performs one run: repeated set-up (setup_s), warm-up, the timed
// phase, the output checks and the teardown. With cfg.trace it performs the
// traced run instead and reports the per-layer metrics.
func runWorkload(env *benchEnv, cfg runConfig) (*runResult, error) {
	cfg.withDefaults()
	res := &runResult{Workload: cfg.wl.Name, Seed: cfg.seed, Trace: cfg.trace, Metrics: make(map[string]float64)}
	gen, err := newGenerator(cfg.wl, cfg.seed, cfg.pool)
	if err != nil {
		return nil, err
	}

	// Set the system up from nothing several times and keep the last one: the
	// median is setup_s, so a single slow start does not decide the metric.
	// Three times at least; cheap set-ups (a 10,000-row census and one child
	// take 15 ms) repeat up to nine times within one second, because a few ms
	// of jitter are a large share of them.
	var d *deployment
	var setupTimes []float64
	var spent time.Duration
	more := func() bool {
		switch done := len(setupTimes); {
		case cfg.trace: // the traced run does not report setup_s
			return done < 1
		case cfg.setups > 0:
			return done < cfg.setups
		default:
			return done < 3 || (done < 9 && spent < time.Second)
		}
	}
	for more() {
		if d != nil {
			d.teardown()
		}
		t0 := time.Now()
		if d, err = env.deploy(cfg.wl, cfg.rows, cfg.seed); err != nil {
			return nil, err
		}
		spent += time.Since(t0)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer d.teardown()
	if res.InputDigest, err = inputDigest(d.snapshot, gen, 2); err != nil {
		return nil, err
	}

	if cfg.trace {
		err = runTraced(env, cfg, d, gen, res)
	} else {
		err = runTimed(cfg, d, gen, res)
		res.Metrics["setup_s"] = median(setupTimes)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// workloadAnalysts builds the workload's load generator: one in-process
// analyst for the library workloads, one closed-loop HTTP analyst, or the two
// connections of the open loop — never more goroutines or connections than the
// host has CPUs. The closed loops use a single analyst on purpose: on a 2-CPU
// host a second one saturates both CPUs with generator plus server, and the
// run-to-run spread of every latency triples (13 % against 4 %); how the
// server behaves under concurrent analysts is the open-loop workload's job.
func workloadAnalysts(cfg runConfig, d *deployment, gen *generator) ([]*analyst, *libBackend, error) {
	switch cfg.wl.Kind {
	case kindOpen:
		return newAnalysts(2, gen, httpBackendFor(d.url)), nil, nil
	case kindClosed, kindCluster:
		return newAnalysts(1, gen, httpBackendFor(d.url)), nil, nil
	}
	lb := coldBackend(d.table)
	if cfg.wl.Relational {
		cat, err := newOccupationCatalog()
		if err != nil {
			return nil, nil, err
		}
		lb = &libBackend{table: d.table, catalog: cat}
	}
	lb.collect = true
	return newAnalysts(1, gen, func(*analyst) backend { return lb }), lb, nil
}

// warmUp lets caches fill and lazy set-up finish before anything is timed: one
// second of the workload's own mix over HTTP, one full session in-process, and
// for the open-loop workload the filter-cache prefill.
func warmUp(cfg runConfig, analysts []*analyst) phase {
	var prefill phase
	if cfg.wl.Kind == kindOpen {
		// 4,608 distinct predicates: the server's cache capacity plus an
		// eighth, so the cache is full and evicting when the timed phase starts.
		sessions := (cfg.pool/4 + cfg.pool/32) / 8 / len(analysts)
		for _, a := range analysts {
			a.script = a.gen.prefillSession
		}
		prefill = runSessions(analysts, sessions)
		for _, a := range analysts {
			a.script, a.nextIndex = nil, 0
		}
	}
	warm := time.Second
	if cfg.wl.Kind == kindLib {
		warm = 0 // runClosed always runs one session
	}
	if s := time.Duration(cfg.seconds * float64(time.Second) / 5); s < warm {
		warm = s
	}
	p := runClosed(analysts, warm)
	p.failures = append(prefill.failures, p.failures...)
	return p
}

// runTimed is the untraced run: it produces the end-to-end metrics.
func runTimed(cfg runConfig, d *deployment, gen *generator, res *runResult) error {
	analysts, _, err := workloadAnalysts(cfg, d, gen)
	if err != nil {
		return err
	}
	if w := warmUp(cfg, analysts); len(w.failures) > 0 {
		res.fail("warm-up: %s", w.failures[0])
	}
	for _, a := range analysts {
		a.record = cfg.wl.Kind != kindLib
	}

	cpu0, _, err := d.cpuAndRSS()
	if err != nil {
		return err
	}
	var p phase
	stepWindow := -1
	if cfg.wl.Kind == kindOpen && !cfg.capacity {
		p = runOpen(cfg, analysts, res)
		stepWindow = 0 // the latency metrics of the open loop are taken at the lowest rate
	} else {
		p = runClosed(analysts, time.Duration(cfg.seconds*float64(time.Second)))
	}
	cpu1, rss, err := d.cpuAndRSS()
	if err != nil {
		return err
	}

	res.absorb(&p)
	endToEndMetrics(res.Metrics, &p, stepWindow, cpu1-cpu0, rss)
	fmt.Fprintf(cfg.log, "%s: %d ops in %.2fs, %d failed\n", cfg.wl.Name, len(p.samples), p.elapsed.Seconds(), p.failed())
	printKinds(cfg.log, &p)
	if !cfg.capacity {
		genMetrics(res.Metrics, cfg, &p)
	} else {
		fmt.Fprintf(cfg.log, "closed-loop capacity of the %s mix: %.0f ops/s with %d connections\n", cfg.wl.Name, float64(len(p.samples))/p.elapsed.Seconds(), len(analysts))
	}

	// Output checks. Every session of the cluster workload and a seeded sample
	// of 50 of the other HTTP workloads must equal a library-direct Apply of
	// the same script, bit for bit.
	if cfg.wl.Kind != kindLib {
		if err := d.openTable(); err != nil {
			return err
		}
		sampleN := 50
		if cfg.wl.Kind == kindCluster {
			sampleN = 0
		}
		verifyTranscripts(res, d.table, gen, p.transcripts, sampleN, cfg.seed)
		if cfg.wl.Kind == kindCluster {
			if err := killDrill(d, gen, res); err != nil {
				return err
			}
		}
		return d.checkNoLeak(res)
	}
	return nil
}

// runSessions runs a fixed number of sessions per analyst.
func runSessions(analysts []*analyst, sessions int) phase {
	start := time.Now()
	done := make(chan struct{})
	for _, a := range analysts {
		go func(a *analyst) {
			for i := 0; i < sessions; i++ {
				a.runSession(start)
			}
			done <- struct{}{}
		}(a)
	}
	for range analysts {
		<-done
	}
	return collect(analysts, time.Since(start))
}

// runOpen drives the analysts through the run's fixed-rate windows.
func runOpen(cfg runConfig, analysts []*analyst, res *runResult) phase {
	total := time.Duration(cfg.seconds * float64(time.Second))
	perConn := make([]float64, len(cfg.rates))
	for i, r := range cfg.rates {
		perConn[i] = r / float64(len(analysts))
	}
	start := time.Now().Add(10 * time.Millisecond)
	scheds := make([]*schedule, len(analysts))
	for i, a := range analysts {
		scheds[i] = newSchedule(rand.New(rand.NewSource(cfg.seed*7919+int64(i))), perConn, total, cfg.shares())
		scheds[i].start = start
		a.pace = scheds[i]
	}
	done := make(chan struct{})
	for i, a := range analysts {
		go func(a *analyst, s *schedule) {
			for s.i < len(s.offsets) && time.Since(start) <= s.total+overrunGrace {
				a.runSession(start)
			}
			done <- struct{}{}
		}(a, scheds[i])
	}
	for range analysts {
		<-done
	}
	p := collect(analysts, time.Since(start))
	for i, a := range analysts {
		a.pace = nil
		if n := scheds[i].unsent(); n > 0 {
			res.Attempted += n
			res.failN(n, "open loop: connection %d wrote off %d scheduled ops it never got to", i, n)
		}
	}
	if p.elapsed < total {
		p.elapsed = total
	}
	return p
}

// endToEndMetrics computes the user-visible metrics of a timed phase. With
// stepWindow >= 0 (open loop) the latency metrics are taken over that rate
// window; throughput and CPU always cover the whole phase.
func endToEndMetrics(m map[string]float64, p *phase, stepWindow int, cpu time.Duration, rss float64) {
	steps := p.byClass(classStep, stepWindow)
	reads := p.byClass(classRead, stepWindow)
	allSteps := p.byClass(classStep, -1)
	m["step_p50_ms"] = median(durationsMs(steps))
	m["read_p50_ms"] = median(durationsMs(reads))
	m["steps_per_s"] = float64(len(allSteps)) / p.elapsed.Seconds()
	if len(allSteps) > 0 {
		m["cpu_ms_per_step"] = float64(cpu) / 1e6 / float64(len(allSteps))
	}
	m["peak_rss_mb"] = rss
}

// --- the cluster failover drill ---

// drillSession is one session kept live across the node kill.
type drillSession struct {
	id    int64
	owner string
	steps int // acknowledged journaled steps
	gauge api.Gauge
}

// killDrill is the durability check of cluster_durable_10k: with live sessions
// on both nodes it SIGKILLs the node that owns the most, waits for the
// router's journal-replay failover, and requires every acknowledged step to be
// present and every gauge to be bit-identical to its pre-kill value and to
// the library's. The journal does not fsync: this is process-crash
// durability (the page cache survives the kill), not power-loss durability.
func killDrill(d *deployment, gen *generator, res *runResult) error {
	ctx := context.Background()
	var lastNode string
	c := client.New(d.url, client.WithHTTPClient(newHTTPClient()),
		client.WithObserver(func(call client.Call) { lastNode = call.Node }))
	be := &clientBackend{c: c}
	ref := &libBackend{table: d.table}

	const sessions = 12
	live := make([]drillSession, 0, sessions)
	owners := map[string]int{}
	for i := 0; i < sessions; i++ {
		ops := gen.session(1000, i) // a script stream no analyst uses
		sr := be.newSession().(*clientSession)
		lib := ref.newSession()
		ds := drillSession{}
		for j := range ops {
			o := &ops[j]
			if o.kind == opDelete || o.kind.class() == classRead || o.kind == opHoldoutValidate || o.kind == opHoldoutReplay {
				continue
			}
			got, _, err := sr.do(o)
			if err != nil {
				return fmt.Errorf("kill drill: session %d op %s: %w", i, o.kind, err)
			}
			want, _, err := lib.do(o)
			if err != nil {
				return fmt.Errorf("kill drill: library twin of session %d op %s: %w", i, o.kind, err)
			}
			res.check(sameResult(got, want), "kill drill: session %d op %s differs from the library before the kill", i, o.kind)
			if o.kind != opCreate {
				ds.steps++
			}
		}
		g, err := c.Gauge(ctx, sr.id)
		if err != nil {
			return fmt.Errorf("kill drill: gauge of session %d: %w", sr.id, err)
		}
		want, _, _ := lib.do(&op{kind: opGauge})
		res.check(reflect.DeepEqual(g, *want.gauge), "kill drill: gauge of session %d differs from the library before the kill", sr.id)
		ds.id, ds.owner, ds.gauge = sr.id, lastNode, g
		owners[ds.owner]++
		live = append(live, ds)
	}

	// The victim is the node that owns the most live sessions.
	names := make([]string, 0, len(owners))
	for n := range owners {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if owners[names[i]] != owners[names[j]] {
			return owners[names[i]] > owners[names[j]]
		}
		return names[i] < names[j]
	})
	var victim *child
	for _, n := range d.nodes {
		if len(names) > 0 && n.name == names[0] {
			victim = n
		}
	}
	if victim == nil {
		return fmt.Errorf("kill drill: no node owns a live session (owners %v)", owners)
	}
	killed := time.Now()
	victim.kill()

	// Wait for failover: every session the victim owned must answer again.
	deadline := killed.Add(20 * time.Second)
	for _, ds := range live {
		if ds.owner != victim.name {
			continue
		}
		for {
			if _, err := c.Gauge(ctx, ds.id); err == nil {
				break
			} else if time.Now().After(deadline) {
				res.check(false, "kill drill: session %d not restored 20s after the kill: %v", ds.id, err)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	failoverMs := float64(time.Since(killed)) / 1e6

	restored := 0
	for _, ds := range live {
		g, err := c.Gauge(ctx, ds.id)
		if err != nil {
			res.check(false, "kill drill: gauge of session %d after the kill: %v", ds.id, err)
			continue
		}
		res.check(reflect.DeepEqual(g, ds.gauge), "kill drill: gauge of session %d changed across the failover", ds.id)
		l, err := c.Log(ctx, ds.id)
		res.check(err == nil && l.Count == ds.steps, "kill drill: session %d has %d of %d acknowledged steps after the failover (%v)", ds.id, l.Count, ds.steps, err)
		if ds.owner == victim.name {
			res.check(lastNode != victim.name, "kill drill: session %d still answered by the killed node", ds.id)
			restored++
		}
		res.check(c.DeleteSession(ctx, ds.id) == nil, "kill drill: deleting session %d", ds.id)
	}
	res.Metrics["cluster.failover_ms"] = failoverMs
	res.Metrics["cluster.sessions_restored"] = float64(restored)
	return nil
}

// printKinds prints the per-op-kind latency table of a phase: the diagnostic
// behind the class-level metrics.
func printKinds(w io.Writer, p *phase) {
	var byKind [numOpKinds][]float64
	for _, s := range p.samples {
		if !s.failed {
			byKind[s.kind] = append(byKind[s.kind], float64(s.dur)/1e6)
		}
	}
	fmt.Fprintf(w, "  %-18s %8s %10s %10s %10s\n", "op", "count", "p50_ms", "p95_ms", "max_ms")
	for k, xs := range byKind {
		if len(xs) == 0 {
			continue
		}
		sort.Float64s(xs)
		fmt.Fprintf(w, "  %-18s %8d %10.4f %10.4f %10.4f\n", opKind(k), len(xs), percentile(xs, 50), percentile(xs, 95), xs[len(xs)-1])
	}
}
