package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"aware/internal/client"
	"aware/internal/dataset"
)

// runConfig is one benchmark run: one workload, one seed, one timed phase.
type runConfig struct {
	wl      *workloadSpec
	seed    int64
	seconds float64
	trace   bool
	// rows and pool override the workload's sizes (tests run tiny ones).
	rows, pool int
	// setups fixes how many times the set-up is repeated (setup_s is the
	// median); 0 repeats it three to nine times depending on its cost.
	setups int
	// rates are the open-loop rates in ops/s.
	rates [3]float64
	// capacity runs the open-loop workload's mix closed-loop instead, which is
	// how the frozen rates were chosen.
	capacity bool
	// ladderSteps bounds the hypothesis-creating steps the traced ladder replays.
	ladderSteps int
	log         io.Writer
	outDir      string
}

func (c *runConfig) withDefaults() {
	if c.rows == 0 {
		c.rows = c.wl.Rows
	}
	if c.pool == 0 {
		c.pool = c.wl.Pool
	}
	if c.rates == [3]float64{} {
		c.rates = openRates
	}
	if c.ladderSteps == 0 {
		c.ladderSteps = 300
	}
	if c.log == nil {
		c.log = io.Discard
	}
}

// runResult is what one run reports.
type runResult struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]float64 `json:"metrics"`
	InputDigest string             `json:"input_digest"`
	Failures    []string           `json:"failures,omitempty"`
}

// absorb counts a phase's ops and failures into the result.
func (r *runResult) absorb(p *phase) {
	r.Attempted += len(p.samples)
	r.Failed += p.failed()
	r.Failures = append(r.Failures, p.failures...)
}

// check records one output check; a failed check counts like a failed op.
func (r *runResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *runResult) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n failures behind one description.
func (r *runResult) failN(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// --- deployment: the system under test, set up from a snapshot ---

type deployment struct {
	wl          *workloadSpec
	dir         string
	snapshot    string
	table       *dataset.Table // the benchmark's own handle on the snapshot
	nodes       []*child
	router      *child
	journalDirs []string
	url         string
}

// deploy sets the workload's system up from nothing: census snapshot written,
// then either opened in-process (library workloads) or served by freshly
// started children that answer /healthz. Its wall time is one setup_s sample.
func (e *benchEnv) deploy(wl *workloadSpec, rows int, seed int64) (*deployment, error) {
	dir, err := e.scratch("deploy")
	if err != nil {
		return nil, err
	}
	d := &deployment{wl: wl, dir: dir}
	dataDir := filepath.Join(dir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	if d.snapshot, err = e.makeSnapshot(dataDir, rows, seed); err != nil {
		return nil, err
	}
	switch wl.Kind {
	case kindLib:
		if err := d.openTable(); err != nil {
			return nil, err
		}
		// The server pins a word arena to every dataset it registers; the
		// library sessions get the same, so arena changes show here.
		d.table.SetArena(dataset.NewWordArena(d.table.NumRows()))
	case kindClosed, kindOpen:
		node, err := e.startAwared("n1", dataDir, "", 0)
		if err != nil {
			d.teardown()
			return nil, err
		}
		d.nodes, d.url = []*child{node}, node.url
	case kindCluster:
		for _, name := range []string{"n1", "n2"} {
			journal := filepath.Join(dir, "journal-"+name)
			node, err := e.startAwared(name, dataDir, journal, 1)
			if err != nil {
				d.teardown()
				return nil, err
			}
			d.nodes = append(d.nodes, node)
			d.journalDirs = append(d.journalDirs, journal)
		}
		if d.router, err = e.startRouter(d.nodes, d.journalDirs); err != nil {
			d.teardown()
			return nil, err
		}
		d.url = d.router.url
	}
	return d, nil
}

// openTable maps the snapshot into the benchmark process: the table under
// test of the library workloads, the reference twin of the HTTP ones.
func (d *deployment) openTable() error {
	if d.table != nil {
		return nil
	}
	t, err := dataset.OpenSnapshot(d.snapshot)
	if err != nil {
		return fmt.Errorf("opening %s: %w", d.snapshot, err)
	}
	d.table = t
	return nil
}

// children returns every process under test of the deployment.
func (d *deployment) children() []*child {
	out := append([]*child(nil), d.nodes...)
	if d.router != nil {
		out = append(out, d.router)
	}
	return out
}

// teardown stops the children (router first, as an operator would), unmaps
// the table and removes the deployment's files.
func (d *deployment) teardown() {
	if d.router != nil {
		d.router.stop()
	}
	for _, n := range d.nodes {
		n.stop()
	}
	if d.table != nil {
		d.table.Close()
		d.table = nil
	}
	os.RemoveAll(d.dir)
}

// cpuAndRSS returns the CPU time consumed so far by the processes under test
// and the largest peak RSS among them. Library workloads run in the benchmark
// process itself.
func (d *deployment) cpuAndRSS() (time.Duration, float64, error) {
	if d.wl.Kind == kindLib {
		rss, err := procPeakRSS(os.Getpid())
		return selfCPU(), rss, err
	}
	var cpu time.Duration
	var peak float64
	for _, c := range d.children() {
		t, err := procCPU(c.pid())
		if err != nil {
			return 0, 0, err
		}
		rss, err := procPeakRSS(c.pid())
		if err != nil {
			return 0, 0, err
		}
		cpu += t
		if rss > peak {
			peak = rss
		}
	}
	return cpu, peak, nil
}

// checkNoLeak requires /healthz to report no live session once a workload is
// done: every session the scripts created must have been deleted.
func (d *deployment) checkNoLeak(res *runResult) error {
	h, err := client.New(d.url).Health(context.Background())
	if err != nil {
		return err
	}
	res.check(h.Sessions == 0, "%d sessions still live after the workload (leak)", h.Sessions)
	return nil
}

// --- analysts: the load generator's goroutines ---

// transcript is what one session's ops returned, kept for the output checks.
type transcript struct {
	analyst, index int
	results        []opResult
}

// pacer schedules the ops of an open-loop analyst: next blocks until the next
// op is due and returns its intended start and rate window; ok is false once
// the schedule is exhausted.
type pacer interface {
	next() (intended time.Time, window int, ok bool)
}

// analyst is one closed- or open-loop client: it runs session scripts one
// after another on one connection and keeps every raw latency sample.
type analyst struct {
	id  int
	be  backend
	gen *generator
	// nextIndex is the next session index of this analyst's script stream.
	nextIndex int
	pace      pacer
	// free is when the analyst's connection last came free (its last reply).
	free time.Time
	// script overrides the generator's session script (the cache prefill).
	script func(analyst, index int) []op
	record bool
	spans  *spanRecorder // set on the traced pass only

	samples     []sample
	failures    []string
	transcripts []transcript
	// node is the X-Aware-Node of the last answer (set by the client observer).
	node               string
	affinityViolations int
}

// runSession runs the analyst's next session script to its end. An op that
// fails is counted, the session is deleted best-effort and abandoned.
func (a *analyst) runSession(phaseStart time.Time) {
	index := a.nextIndex
	a.nextIndex++
	script := a.script
	if script == nil {
		script = a.gen.session
	}
	ops := script(a.id, index)
	sr := a.be.newSession()
	tr := transcript{analyst: a.id, index: index}
	owner := ""
	paced := a.pace != nil
	// On the traced pass every other session gets a span around each op; the
	// sessions in between are the untraced control the overhead is read from.
	traced := a.spans != nil && index%2 == 1
	for i := range ops {
		o := &ops[i]
		var intended time.Time
		window := 0
		if paced {
			var ok bool
			if intended, window, ok = a.pace.next(); !ok {
				paced = false // schedule over: finish the session untimed
			}
		}
		start := time.Now()
		res, dur, err := sr.do(o)
		end := time.Now()
		if paced || a.pace == nil {
			s := sample{at: int64(end.Sub(phaseStart)), dur: int64(dur), kind: o.kind, window: uint8(window), failed: err != nil, traced: traced}
			if paced {
				// The op was due at its intended start and could be sent from
				// then on, or from the moment a slow reply freed its connection.
				// That wait is the system's and counts as latency; what the
				// generator added on top (a sleep that overshot) does not, and
				// is reported as gen.sched_lag_p99_ms.
				sendable := intended
				if a.free.After(sendable) {
					sendable = a.free
				}
				s.lag = int64(start.Sub(intended))
				s.late = int64(start.Sub(sendable))
				s.dur = int64(end.Sub(intended)) - s.late
			}
			a.samples = append(a.samples, s)
			if traced {
				a.spans.add(span{Name: "op." + o.kind.String(), Start: start.UnixNano(), End: start.UnixNano() + int64(dur),
					Request: fmt.Sprintf("a%d/s%d/%d", a.id, index, i)})
			}
		}
		a.free = end
		if err != nil {
			if len(a.failures) < 5 {
				a.failures = append(a.failures, fmt.Sprintf("analyst %d session %d op %d (%s): %v", a.id, index, i, o.kind, err))
			}
			if o.kind != opCreate && o.kind != opDelete {
				sr.do(&op{kind: opDelete})
			}
			return
		}
		if a.node != "" {
			if owner == "" {
				owner = a.node
			} else if owner != a.node {
				a.affinityViolations++
				owner = a.node
			}
		}
		tr.results = append(tr.results, res)
	}
	if a.record {
		a.transcripts = append(a.transcripts, tr)
	}
}

// phase is the merged outcome of one timed (or warm-up) phase.
type phase struct {
	samples     []sample
	elapsed     time.Duration
	failures    []string
	transcripts []transcript
	affinity    int
}

// runClosed drives the analysts closed-loop for the given duration: each
// sends its next request as soon as the previous one returned, and starts no
// new session after the deadline.
func runClosed(analysts []*analyst, d time.Duration) phase {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, a := range analysts {
		wg.Add(1)
		go func(a *analyst) {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				a.runSession(start)
			}
		}(a)
	}
	wg.Wait()
	return collect(analysts, time.Since(start))
}

// collect merges and clears the analysts' per-phase records.
func collect(analysts []*analyst, elapsed time.Duration) phase {
	p := phase{elapsed: elapsed}
	for _, a := range analysts {
		p.samples = append(p.samples, a.samples...)
		p.failures = append(p.failures, a.failures...)
		p.transcripts = append(p.transcripts, a.transcripts...)
		p.affinity += a.affinityViolations
		a.samples, a.failures, a.transcripts, a.affinityViolations = nil, nil, nil, 0
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].at < p.samples[j].at })
	return p
}

// byClass returns the successful samples of one class (and, when window >= 0,
// one open-loop window).
func (p *phase) byClass(c opClass, window int) []sample {
	var out []sample
	for _, s := range p.samples {
		if !s.failed && s.kind.class() == c && (window < 0 || int(s.window) == window) {
			out = append(out, s)
		}
	}
	return out
}

func (p *phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// newAnalysts builds n analysts over a backend factory.
func newAnalysts(n int, gen *generator, mk func(a *analyst) backend) []*analyst {
	out := make([]*analyst, n)
	for i := range out {
		out[i] = &analyst{id: i, gen: gen}
		out[i].be = mk(out[i])
	}
	return out
}

// httpBackendFor gives an analyst its own single-connection client whose
// observer reports the serving node of every answer.
func httpBackendFor(url string) func(a *analyst) backend {
	return func(a *analyst) backend {
		c := client.New(url, client.WithHTTPClient(newHTTPClient()),
			client.WithObserver(func(call client.Call) { a.node = call.Node }))
		return &clientBackend{c: c}
	}
}

// --- output checks ---

// verifyTranscripts replays recorded sessions through the library on the
// benchmark's own handle of the same snapshot and requires every p-value,
// every wealth value and every gauge fetched over HTTP to be bit-identical.
// sampleN <= 0 checks every transcript; otherwise a seeded sample.
func verifyTranscripts(res *runResult, table *dataset.Table, gen *generator, trs []transcript, sampleN int, seed int64) {
	if sampleN > 0 && len(trs) > sampleN {
		rng := rand.New(rand.NewSource(seed ^ 0x7e57))
		rng.Shuffle(len(trs), func(i, j int) { trs[i], trs[j] = trs[j], trs[i] })
		trs = trs[:sampleN]
	}
	ref := &libBackend{table: table, shared: dataset.NewSelectionCache(table)}
	for _, tr := range trs {
		ops := gen.session(tr.analyst, tr.index)
		sr := ref.newSession()
		for i := range tr.results {
			want, _, err := sr.do(&ops[i])
			if err != nil {
				res.check(false, "library replay of session %d/%d op %d (%s): %v", tr.analyst, tr.index, i, ops[i].kind, err)
				break
			}
			res.check(sameResult(want, tr.results[i]),
				"session %d/%d op %d (%s): answer over HTTP differs from the library's (p %v vs %v, wealth %v vs %v)",
				tr.analyst, tr.index, i, ops[i].kind, tr.results[i].pValue, want.pValue, tr.results[i].wealth, want.wealth)
		}
	}
}

// inputDigest hashes the snapshot bytes and the generated scripts: two result
// files are comparable only if they measured the same inputs.
func inputDigest(snapshot string, gen *generator, analysts int) (string, error) {
	h := sha256.New()
	f, err := os.Open(snapshot)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	gen.digestScripts(h, analysts, 32)
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}
