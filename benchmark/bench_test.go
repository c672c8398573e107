package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"aware/internal/census"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON mirrors BENCHMARK.json; DisallowUnknownFields pins "exactly
// these keys".
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestContractMatchesBenchmarkJSON pins the names, units, directions and
// bounds in spec.go to BENCHMARK.json, and both to the driver's format rules.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	// The driver makes 4 + 22 x workloads runs inside 3420 s.
	if runs := 4 + 22*len(b.Workloads); float64(runs)*float64(b.RunSeconds) > 3420 {
		t.Errorf("%d runs of %d s cannot fit 3420 s", runs, b.RunSeconds)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		unique(m.Name)
		want := endToEnd[i]
		if m.Bound == nil {
			t.Fatalf("end-to-end metric %s has no bound", m.Name)
		}
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || *m.Bound != want.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v (bound %v), spec.go %+v", i, m, *m.Bound, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, better %q, bound %v out of format", m.Name, m.Unit, m.Better, *m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, better lower")
	}

	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d (max 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		unique(m.Name)
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, spec.go %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q, better %q out of format", m.Name, m.Unit, m.Better)
		}
	}

	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d elements", len(b.Command))
	}
	for _, arg := range b.Command[1:] {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
		if strings.Contains(arg, "/") && !strings.HasPrefix(arg, "benchmark/") {
			t.Errorf("command argument %q names a path outside paths", arg)
		}
	}
}

// TestResultLineCarriesEveryMetric: whatever a run measured, the result
// object has exactly the metrics its mode owes, each with its unit.
func TestResultLineCarriesEveryMetric(t *testing.T) {
	for _, traced := range []bool{false, true} {
		list := endToEnd
		if traced {
			list = perLayer
		}
		line := resultLineOf(&runResult{Trace: traced, Correct: true, Metrics: map[string]float64{"step_p50_ms": 1.5, "stray": 9}})
		if len(line.Metrics) != len(list) {
			t.Fatalf("traced=%v: %d metrics, want %d", traced, len(line.Metrics), len(list))
		}
		for _, m := range list {
			got, ok := line.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Unit == "" {
				t.Errorf("traced=%v: metric %s emitted as %+v (present %v), want unit %q", traced, m.Name, got, ok, m.Unit)
			}
		}
		if line.Attempted < 1 {
			t.Error("attempted must be at least 1")
		}
		data, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(data, &keys); err != nil || len(keys) != 4 {
			t.Errorf("result object has %d keys, want exactly correct, attempted, failed, metrics: %s", len(keys), data)
		}
	}
}

func TestPercentileArithmetic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {95, 9.55}, {100, 10}, {25, 3.25}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || percentile([]float64{7}, 99) != 7 {
		t.Error("degenerate percentiles")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v", got)
	}
}

// TestWindowedP95 checks the per-fifth p95 and that one slow stretch does not
// decide the metric: four quiet windows and one 100x slower.
func TestWindowedP95(t *testing.T) {
	var samples []sample
	span := int64(5 * time.Second)
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			dur := int64(i+1) * int64(time.Millisecond) / 10 // 0.1 .. 10 ms
			if w == 2 {
				dur *= 100
			}
			samples = append(samples, sample{at: int64(w)*int64(time.Second) + int64(i)*int64(time.Millisecond), dur: dur})
		}
	}
	want := percentile(func() []float64 {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = float64(i+1) / 10
		}
		return xs
	}(), 95)
	if got := windowedP95(samples, 0, span, 5); math.Abs(got-want) > 1e-9 {
		t.Errorf("windowedP95 = %v, want the quiet windows' p95 %v", got, want)
	}
	// The same samples shifted by an offset, read with that offset.
	for i := range samples {
		samples[i].at += int64(7 * time.Second)
	}
	if got := windowedP95(samples, int64(7*time.Second), span, 5); math.Abs(got-want) > 1e-9 {
		t.Errorf("windowedP95 with offset = %v, want %v", got, want)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 1, 4, 9, 2})
	if q1 != 1.5 || q2 != 4 || q3 != 9.5 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 9.5", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// TestSpanSelfTimeAndSumCheck: a layer's self time is its span minus its
// child's, and the self times of a ladder sum to the top depth's span.
func TestSpanSelfTimeAndSumCheck(t *testing.T) {
	rec := &spanRecorder{}
	kernel := rec.add(span{Name: "kernel.viz", Start: 0, End: 100})
	rec.add(span{Name: "dataset.where", Start: 0, End: 30, Parent: kernel})
	rec.add(span{Name: "dataset.agg", Start: 30, End: 90, Parent: kernel})
	apply := rec.add(span{Name: "core.apply.viz", Start: 1000, End: 1120})
	handler := rec.add(span{Name: "server.handler.viz", Start: 2000, End: 2200})
	http := rec.add(span{Name: "client.loopback.viz", Start: 3000, End: 3500})
	rec.spans[kernel-1].Parent = apply
	rec.spans[apply-1].Parent = handler
	rec.spans[handler-1].Parent = http
	self := selfTimes(rec.spans)
	for id, want := range map[int]int64{kernel: 10, apply: 20, handler: 80, http: 300} {
		if self[id] != want {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, rec.spans[id-1].Name, self[id], want)
		}
	}
	// Sum check: kernel's whole span plus the self times above it is the top span.
	if sum := rec.spans[kernel-1].dur() + self[apply] + self[handler] + self[http]; sum != rec.spans[http-1].dur() {
		t.Errorf("self times sum to %d, top span is %d", sum, rec.spans[http-1].dur())
	}
}

// TestInputDigest: the same seed gives the same inputs, another seed others.
func TestInputDigest(t *testing.T) {
	wl := workloadByName("http_hot_10k")
	digest := func(seed int64) string {
		t.Helper()
		table, err := census.Generate(census.Config{Rows: 500, Seed: seed, SignalStrength: 1})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "census.aware")
		if err := table.Snapshot(path); err != nil {
			t.Fatal(err)
		}
		gen, err := newGenerator(wl, seed, wl.Pool)
		if err != nil {
			t.Fatal(err)
		}
		d, err := inputDigest(path, gen, 2)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b, c := digest(3), digest(3), digest(4)
	if a != b {
		t.Errorf("same seed, different digests: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("different seeds, same digest %s", a)
	}
}

// TestScriptsAreValidAndDeterministic runs every workload's script through the
// library on a small census: no op may fail, no session may exhaust its
// wealth, and the same (seed, analyst, index) must give the same script.
func TestScriptsAreValidAndDeterministic(t *testing.T) {
	table, err := census.Generate(census.Config{Rows: 6000, Seed: 11, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := newOccupationCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		wl := &workloads[i]
		pool := wl.Pool
		if pool > 512 {
			pool = 512
		}
		gen, err := newGenerator(wl, 5, pool)
		if err != nil {
			t.Fatal(err)
		}
		again, err := newGenerator(wl, 5, pool)
		if err != nil {
			t.Fatal(err)
		}
		be := &libBackend{table: table, catalog: cat}
		for s := 0; s < 20; s++ {
			ops := gen.session(s%2, s)
			twin := again.session(s%2, s)
			if len(ops) != len(twin) {
				t.Fatalf("%s: session %d is not deterministic", wl.Name, s)
			}
			sr := be.newSession()
			for j := range ops {
				if ops[j].kind != twin[j].kind || string(ops[j].raw) != string(twin[j].raw) || ops[j].target != twin[j].target {
					t.Fatalf("%s: session %d op %d is not deterministic", wl.Name, s, j)
				}
				if _, _, err := sr.do(&ops[j]); err != nil {
					t.Fatalf("%s: session %d op %d (%s): %v", wl.Name, s, j, ops[j].kind, err)
				}
			}
		}
	}
}

// stallBackend is a fake server whose first op of kind viz stalls.
type stallBackend struct {
	stall   time.Duration
	stalled bool
}

func (b *stallBackend) newSession() sessionRunner { return b }

func (b *stallBackend) do(o *op) (opResult, time.Duration, error) {
	start := time.Now()
	if o.kind == opViz && !b.stalled {
		b.stalled = true
		time.Sleep(b.stall)
	}
	return opResult{}, time.Since(start), nil
}

// TestOpenLoopMeasuresFromIntendedStart: when the server stalls, the ops that
// were due during the stall must show up as latency — timed from when they
// should have been sent — not as missing samples.
func TestOpenLoopMeasuresFromIntendedStart(t *testing.T) {
	wl := workloadByName("http_open_mixed_300k")
	gen, err := newGenerator(wl, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	const stall = 300 * time.Millisecond
	be := &stallBackend{stall: stall}
	a := &analyst{id: 0, gen: gen, be: be}
	cfg := runConfig{wl: wl, seed: 1, seconds: 1.2, rates: [3]float64{200, 200, 200}, trace: true} // traced: all three rate windows
	res := &runResult{Metrics: map[string]float64{}}
	p := runOpen(cfg, []*analyst{a}, res)

	// Every scheduled op produced a sample: nothing went missing.
	if res.Failed != 0 {
		t.Fatalf("ops written off: %v", res.Failures)
	}
	scheduled := len(p.samples)
	if scheduled < 150 || scheduled > 330 {
		t.Fatalf("%d samples for 1.2 s at 200 ops/s", scheduled)
	}
	// The ops due during the stall waited: ~200/s x 0.3 s of them carry a
	// latency far above their own (instant) service time, the first of them
	// almost the whole stall.
	waited, worst := 0, time.Duration(0)
	for _, s := range p.samples {
		// The wait for the stalled connection is the system's, not the
		// generator's: only what the generator added after the op could be
		// sent is taken out of the latency.
		if s.late < 0 || s.late > s.lag || s.dur+s.late < s.lag {
			t.Fatalf("sample %+v: want 0 <= late <= lag <= dur+late", s)
		}
		if time.Duration(s.late) > 20*time.Millisecond {
			t.Errorf("generator lateness %v: the stall was booked to the generator", time.Duration(s.late))
		}
		if d := time.Duration(s.dur); d > 20*time.Millisecond {
			waited++
			if d > worst {
				worst = d
			}
		}
	}
	if waited < 30 {
		t.Errorf("only %d ops show the stall as latency; the stall went missing (coordinated omission)", waited)
	}
	if worst < stall*8/10 {
		t.Errorf("worst latency %v, want about the %v stall", worst, stall)
	}
	ws := summarizeWindows(&p, cfg.rates, 1200*time.Millisecond, cfg.shares())
	if ws[0].ok() && ws[1].ok() && ws[2].ok() {
		t.Error("every window reads as sustained although the server stalled for 300 ms against a 50 ms limit")
	}
}

// TestVerdicts: the bounds applied by -compare.
func TestVerdicts(t *testing.T) {
	lower := metricSpec{"step_p50_ms", "ms", "lower", 0.10}
	higher := metricSpec{"steps_per_s", "1/s", "higher", 0.10}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		m    metricSpec
		cand []float64
		want string
	}{
		{lower, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, []float64{115, 114, 116, 115, 115}, "regressed"},
		{lower, []float64{80, 81, 79, 80, 80}, "ok"},
		{higher, []float64{85, 84, 86, 85, 85}, "regressed"},
		{higher, []float64{95, 96, 94, 95, 95}, "ok"},
		{lower, []float64{90, 130, 100, 70, 110}, "unresolved"},
	} {
		if got, _ := verdict(c.m, base, c.cand); got != c.want {
			t.Errorf("verdict(%s, %v) = %s, want %s", c.m.Name, c.cand, got, c.want)
		}
	}
	// Files from different hosts, seeds or inputs are refused.
	a, b := newResultFile(1, 10), newResultFile(2, 10)
	var out bytes.Buffer
	if code := compareResults(&out, a, b); code != 2 {
		t.Errorf("different seeds compared with code %d: %s", code, out.String())
	}
	b = newResultFile(1, 10)
	a.Workloads["lib_cold_3m"] = &workloadRuns{InputDigest: "aa", Runs: []map[string]float64{{}}}
	b.Workloads["lib_cold_3m"] = &workloadRuns{InputDigest: "bb", Runs: []map[string]float64{{}}}
	if code := compareResults(&out, a, b); code != 2 {
		t.Errorf("different input digests compared with code %d", code)
	}
}

// TestTinyRuns drives whole runs at tiny sizes: a library workload untraced
// and traced, and — with the programs under test built — an HTTP workload and
// the cluster workload with its kill drill, checking the output contract,
// the child-process hygiene and that nothing is left behind.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts child processes")
	}
	env, err := newBenchEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer env.cleanup()
	if err := env.buildBinaries(); err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	for _, c := range []struct {
		workload string
		trace    bool
	}{{"lib_relational_300k", false}, {"lib_relational_300k", true}, {"http_hot_10k", false}, {"cluster_durable_10k", false}} {
		cfg := runConfig{wl: workloadByName(c.workload), seed: 3, seconds: 0.5, trace: c.trace,
			rows: 3000, pool: 64, setups: 1, ladderSteps: 12, outDir: outDir}
		res, err := runWorkload(env, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d %v", c.workload, c.trace, res.Correct, res.Attempted, res.Failed, res.Failures)
		}
		if res.InputDigest == "" {
			t.Errorf("%s: no input digest", c.workload)
		}
		list := endToEnd
		if c.trace {
			list = perLayer
		}
		for _, m := range list {
			v, ok := res.Metrics[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s (trace %v): metric %s = %v (present %v)", c.workload, c.trace, m.Name, v, ok)
			}
			if !c.trace && v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", c.workload, m.Name, v)
			}
		}
		if c.trace {
			data, err := os.ReadFile(filepath.Join(outDir, "trace_"+c.workload+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 {
				t.Fatalf("trace file: %v, %d spans", err, len(tf.Spans))
			}
			parents := 0
			for _, s := range tf.Spans {
				if s.Name == "" || s.End < s.Start || s.Request == "" || s.ID == 0 {
					t.Fatalf("malformed span %+v", s)
				}
				if s.Parent != 0 {
					parents++
				}
			}
			if parents == 0 {
				t.Error("no span names a parent")
			}
		}
	}
	// Hygiene: every child stopped, the scratch directory empty of deployments.
	env.mu.Lock()
	for _, c := range env.children {
		select {
		case <-c.waited:
		default:
			t.Errorf("child %s still running after its workload", c.name)
		}
	}
	env.mu.Unlock()
	left, _ := filepath.Glob(filepath.Join(env.runDir, "deploy-*"))
	if len(left) != 0 {
		t.Errorf("deployments left behind: %v", left)
	}
	env.cleanup()
	if _, err := os.Stat(env.runDir); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s survives cleanup", env.runDir)
	}
}
