package main

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"mithra/internal/axbench"
	"mithra/internal/classifier"
	"mithra/internal/mathx"
	"mithra/internal/obs"
	"mithra/internal/parallel"
	"mithra/internal/serve"
)

type decision = serve.DecideResponse

const (
	// servingSeed compiles the served artifacts (the CLI's default
	// seed): the program under test is fixed, the traffic is seeded.
	servingSeed = 42
	// batch is the client's pipeline depth and the server's MaxBatch.
	batch = 32
	// streamLen is each benchmark's traffic: distinct kernel invocations
	// drawn from fresh datasets. A round serves every stream once.
	streamLen = 16384
	// heldOutLen is each benchmark's share of the held-out stream the
	// invocation rate is measured on. heldOutSeed fixes that stream
	// across runs and seeds.
	heldOutLen  = 4096
	heldOutSeed = 0x686f6c646f7574
	// The compile workload serves the held-out stream through its
	// compiled artifacts heldOutRepeat times over per segment, in
	// heldOutSegments segments.
	heldOutRepeat   = 4
	heldOutSegments = 7
)

// stream is one benchmark's kernel inputs in invocation order.
type stream struct {
	bench string
	in    [][]float64
}

// genStream draws n kernel invocations of b from consecutive test-scale
// datasets keyed by seed, running only the precise kernel.
func genStream(b axbench.Benchmark, seed uint64, n int) *stream {
	s := &stream{bench: b.Name(), in: make([][]float64, 0, n)}
	root := mathx.NewRNG(seed)
	for d := uint64(0); len(s.in) < n; d++ {
		in := b.GenInput(root.Split(d), axbench.TestScale())
		b.Run(in, func(kin, kout []float64) {
			if len(s.in) < n {
				s.in = append(s.in, append([]float64(nil), kin...))
			}
			b.Precise(kin, kout)
		})
	}
	return s
}

// streams generates one stream per Table I benchmark.
func streams(seed uint64, label string, n int) []*stream {
	var out []*stream
	for _, b := range axbench.All() {
		out = append(out, genStream(b, parallel.Seed(seed, label+"/"+b.Name()), n))
	}
	return out
}

func heldOutStreams() []*stream { return streams(heldOutSeed, "heldout", heldOutLen) }

// heldFor returns bench's held-out inputs.
func heldFor(held []*stream, bench string) [][]float64 {
	for _, s := range held {
		if s.bench == bench {
			return s.in
		}
	}
	return nil
}

func tablesOf(cs []compiled) []*classifier.Table {
	out := make([]*classifier.Table, len(cs))
	for i, c := range cs {
		out[i] = c.dep.Table
	}
	return out
}

// decisions classifies every input of s with tab (true: precise).
func decisions(tab *classifier.Table, in [][]float64) []bool {
	out := make([]bool, len(in))
	for i, x := range in {
		out[i] = tab.Classify(x)
	}
	return out
}

// invocationRate is the share of the held-out stream, pooled over
// benchmarks, that tables send to the accelerator. tables[i] serves
// held[i].
func invocationRate(tables []*classifier.Table, held []*stream) float64 {
	rates := benchRates(tables, held)
	total := 0.0
	for i, r := range rates {
		total += r * float64(len(held[i].in))
	}
	n := 0
	for _, s := range held {
		n += len(s.in)
	}
	return total / float64(n)
}

// benchRates is each benchmark's share of its held-out stream that
// tables[i] sends to the accelerator.
func benchRates(tables []*classifier.Table, held []*stream) []float64 {
	out := make([]float64, len(held))
	for i, s := range held {
		approx := 0
		for _, in := range s.in {
			if !tables[i].Classify(in) {
				approx++
			}
		}
		out[i] = float64(approx) / float64(len(s.in))
	}
	return out
}

// formatRates renders per-benchmark rates for the log.
func formatRates(held []*stream, rates []float64) string {
	var b strings.Builder
	for i, s := range held {
		fmt.Fprintf(&b, " %s=%.4f", s.bench, rates[i])
	}
	return b.String()
}

// segment is one measured stretch of closed-loop serving.
type segment struct {
	decisions int64
	wall      time.Duration
	cpu       time.Duration
	lat       []float64 // per-batch round trip, µs, sorted
	err       error     // first failed output check
}

// scale converts the segment's times to reference speed (calib.go).
func (s *segment) scale(slow float64) {
	s.wall = time.Duration(float64(s.wall) / slow)
	s.cpu = time.Duration(float64(s.cpu) / slow)
	for i := range s.lat {
		s.lat[i] /= slow
	}
}

func (s segment) rate() float64 { return float64(s.decisions) / s.wall.Seconds() }
func (s segment) p50() float64  { return percentile(s.lat, 0.50) }
func (s segment) p99() float64  { return percentile(s.lat, 0.99) }
func (s segment) cpuPerDecision() float64 {
	return float64(s.cpu.Nanoseconds()) / 1e3 / float64(s.decisions)
}

// sender sends one pipelined batch of benchmark b's inputs under
// request IDs base, base+1, ...
type sender func(b int, base uint32, ins [][]float64) ([]decision, error)

// checker checks one batch's responses; k0 is the stream position of
// its first input.
type checker func(b, k0 int, base uint32, resps []decision) error

// closedLoop serves every stream once, one batch in flight at a time:
// an application waits for each decision before it goes on. Batches
// rotate across benchmarks. next holds each benchmark's next request ID.
func closedLoop(ss []*stream, next []uint32, send sender, check checker) (segment, error) {
	var seg segment
	longest := 0
	for _, s := range ss {
		longest = max(longest, len(s.in))
	}
	seg.lat = make([]float64, 0, len(ss)*(longest/batch+1))
	c0, t0 := cpuTime(), time.Now()
	for k0 := 0; k0 < longest; k0 += batch {
		for b, s := range ss {
			if k0 >= len(s.in) {
				continue
			}
			ins := s.in[k0:min(k0+batch, len(s.in))]
			base := next[b]
			t := time.Now()
			resps, err := send(b, base, ins)
			seg.lat = append(seg.lat, float64(time.Since(t).Nanoseconds())/1e3)
			if err != nil {
				return seg, fmt.Errorf("%s: batch at id %d: %w", s.bench, base, err)
			}
			next[b] += uint32(len(ins))
			seg.decisions += int64(len(ins))
			if err := check(b, k0, base, resps); err != nil && seg.err == nil {
				seg.err = err
			}
		}
	}
	seg.wall, seg.cpu = time.Since(t0), cpuTime()-c0
	sort.Float64s(seg.lat)
	return seg, nil
}

// serveFigures are the serving figures of a set of segments, each the
// median over the segments: decisions/s, p50, p99, CPU µs per decision.
func serveFigures(segs []segment) [4]float64 {
	var rate, p50, p99, cpu []float64
	for _, s := range segs {
		rate = append(rate, s.rate())
		p50 = append(p50, s.p50())
		p99 = append(p99, s.p99())
		cpu = append(cpu, s.cpuPerDecision())
	}
	return [4]float64{median(rate), median(p50), median(p99), median(cpu)}
}

// setServeMetrics reports serving figures.
func setServeMetrics(out *outcome, f [4]float64) {
	out.set("decisions_per_s", "1/s", f[0])
	out.set("latency_p50_us", "us", f[1])
	out.set("latency_p99_us", "us", f[2])
	out.set("cpu_us_per_decision", "us", f[3])
}

// setCompileMetrics reports the set-up compilations' figures: the time
// of one round (median over set-ups) and the served artifacts' gains.
func setCompileMetrics(out *outcome, rounds []float64, cs []compiled) {
	var sp, en []float64
	for _, c := range cs {
		sp = append(sp, c.eval.Speedup)
		en = append(en, c.eval.EnergyReduction)
	}
	out.set("compile_s", "s", median(rounds))
	out.set("speedup", "x", geomean(sp))
	out.set("energy_reduction", "x", geomean(en))
}

// single is one frozen mithrad-equivalent on loopback TCP with one
// client connection.
type single struct {
	srv    *serve.Server
	reg    *serve.Registry
	o      *obs.Obs
	cl     *serve.Client
	done   chan struct{}
	out    []decision
	benchs []string
}

// loadSnapshots reloads every artifact the way mithrad does.
func loadSnapshots(cs []compiled) ([]*serve.Snapshot, error) {
	snaps := make([]*serve.Snapshot, len(cs))
	for i, c := range cs {
		s, err := serve.LoadSnapshot(c.blob)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.job.bench, err)
		}
		snaps[i] = s
	}
	return snaps, nil
}

// startSingle serves the compiled artifacts with frozen snapshots: the
// read-only decide path. Telemetry is on only in traced runs.
func startSingle(cs []compiled, traced bool) (*single, error) {
	snaps, err := loadSnapshots(cs)
	if err != nil {
		return nil, err
	}
	s := &single{reg: serve.NewRegistry(snaps...), out: make([]decision, batch)}
	for _, c := range cs {
		s.benchs = append(s.benchs, c.job.bench)
	}
	if traced {
		if s.o, err = obs.New(obs.Options{Metrics: true}); err != nil {
			return nil, err
		}
	}
	s.srv, err = serve.NewServer(s.reg, serve.Config{Workers: 1, MaxBatch: batch, Freeze: true, Obs: s.o})
	if err != nil {
		return nil, err
	}
	if err := s.listen(); err != nil {
		return nil, err
	}
	return s, nil
}

// listen starts serving on a loopback port and dials the client.
func (s *single) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.shutdown()
		return err
	}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // returns nil once drained
	}()
	if s.cl, err = serve.Dial("tcp", ln.Addr().String()); err != nil {
		s.stop()
		return err
	}
	return nil
}

func (s *single) send(b int, base uint32, ins [][]float64) ([]decision, error) {
	return s.cl.DecideBatchInto(s.benchs[b], base, ins, s.out)
}

// shutdown drains the server (queued decisions, updaters) and waits for
// its goroutines.
func (s *single) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) //nolint:errcheck // a drain timeout leaves nothing to recover here
	if s.done != nil {
		<-s.done
	}
}

// stop closes the client and shuts the server down.
func (s *single) stop() {
	if s.cl != nil {
		s.cl.Close() //nolint:errcheck // teardown
	}
	s.shutdown()
}

// serveHeldOut serves the held-out stream heldOutRepeat times over, as
// heldOutSegments segments, so every segment has as many batches as a
// serve round; every served decision must equal the offline
// classifier's.
func (s *single) serveHeldOut(held []*stream) ([]segment, error) {
	rep := make([]*stream, len(held))
	want := make([][]bool, len(held))
	for i, h := range held {
		rep[i] = &stream{bench: h.bench}
		for k := 0; k < heldOutRepeat; k++ {
			rep[i].in = append(rep[i].in, h.in...)
		}
		want[i] = decisions(s.reg.Get(h.bench).Table, rep[i].in)
	}
	next := make([]uint32, len(rep))
	var segs []segment
	for p := 0; p < heldOutSegments; p++ {
		before := slowdown()
		seg, err := closedLoop(rep, next, s.send, func(b, k0 int, base uint32, resps []decision) error {
			return checkServed(rep[b].bench, base, resps, want[b][k0:k0+len(resps)])
		})
		if err != nil {
			return nil, err
		}
		seg.scale((before + slowdown()) / 2)
		segs = append(segs, seg)
	}
	return segs, nil
}

// fleet is a serving workload's set-up: the compiled artifacts, the
// seeded traffic with its offline decisions, and the held-out stream.
type fleet struct {
	cs        []compiled
	compileS  float64
	traffic   []*stream
	want      [][]bool
	held      []*stream
	certCheck error
}

// buildFleet compiles the six serving artifacts at one worker and
// generates the traffic. With lay non-nil the compilations are traced.
func buildFleet(seed uint64, lay map[string]float64) (*fleet, error) {
	f := &fleet{}
	var err error
	if f.cs, err = compileAll(servingJobs(servingSeed), 1, lay); err != nil {
		return nil, err
	}
	for _, c := range f.cs {
		f.compileS += c.seconds()
		if f.certCheck == nil {
			f.certCheck = checkCertificate(c.job.bench, c.dep.Th, c.job.g)
		}
	}
	f.traffic = streams(seed, "traffic", streamLen)
	f.held = heldOutStreams()
	for i, s := range f.traffic {
		f.want = append(f.want, decisions(f.cs[i].dep.Table, s.in))
	}
	return f, nil
}

// setup is a serving workload's set-up, repeated setupRuns times: the
// last fleet and each set-up's figures.
type setup struct {
	f        *fleet
	secs     []float64 // wall time of each set-up
	compiles []float64 // each set-up's compile round
	lays     []map[string]float64
}

// setUp builds the fleet and starts the workload's node(s) setupRuns
// times. start returns what releases the node(s); every set-up
// but the last is released before the next begins, and the last one's
// release is returned to the caller.
func setUp(e env, start func(f *fleet, s int) (func() error, error)) (*setup, func() error, error) {
	st := &setup{}
	var release func() error
	for s := 0; s < setupRuns; s++ {
		if release != nil {
			if err := release(); err != nil {
				return nil, nil, err
			}
		}
		settle()
		var lay map[string]float64
		if e.trace {
			lay = map[string]float64{}
		}
		secs, _, err := timed(func() error {
			var err error
			if st.f, err = buildFleet(e.seed, lay); err != nil {
				return err
			}
			release, err = start(st.f, s)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		st.secs = append(st.secs, secs)
		st.compiles = append(st.compiles, st.f.compileS)
		st.lays = append(st.lays, lay)
	}
	return st, release, nil
}

// measured is what a serving workload's measured phase hands to report.
type measured struct {
	segs     []segment
	counters []map[string]float64 // per round, traced runs only
	figs     [4]float64           // serveFigures
	rate     float64              // online_invocation_rate
	rss      float64
}

// report sets a serving workload's metrics: the per-layer ones in a
// traced run, the end-to-end ones otherwise.
func (st *setup) report(out *outcome, e env, m measured) error {
	if e.trace {
		setCompileLayers(out, st.lays)
		return servingLayers(out, st.f.cs, st.f.traffic, m.segs, m.counters, e.work)
	}
	out.set("setup_s", "s", median(st.secs))
	setCompileMetrics(out, st.compiles, st.f.cs)
	out.set("online_invocation_rate", "ratio", m.rate)
	out.set("peak_rss_mb", "MB", m.rss)
	setServeMetrics(out, m.figs)
	return nil
}

// measureFrozen serves whole rounds of the traffic until the run's time
// is up, checking every decision against the offline classifier. next
// ends holding each benchmark's request count.
func measureFrozen(e env, out *outcome, f *fleet, send sender, nodes func() []*obs.Obs) (measured, []uint32, error) {
	var m measured
	settle()
	next := make([]uint32, len(f.traffic))
	check := func(b, k0 int, base uint32, resps []decision) error {
		return checkServed(f.traffic[b].bench, base, resps, f.want[b][k0:k0+len(resps)])
	}
	prev := servingCounters(nodes()...)
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	before := slowdown()
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		seg, err := closedLoop(f.traffic, next, send, check)
		if err != nil {
			return m, nil, err
		}
		after := slowdown()
		seg.scale((before + after) / 2)
		before = after
		out.fail(seg.err)
		out.attempted += seg.decisions
		m.segs = append(m.segs, seg)
		if e.trace {
			cur := servingCounters(nodes()...)
			m.counters = append(m.counters, counterDelta(prev, cur))
			prev = cur
		}
	}
	m.rss = peakRSSMB()
	m.figs = serveFigures(m.segs)
	m.rate = invocationRate(tablesOf(f.cs), f.held)
	return m, next, nil
}

// runServe is the serve workload: frozen snapshots of the six artifacts
// on one node, one connection, whole passes over the traffic.
func runServe(e env) (*outcome, error) {
	out := &outcome{}
	var srv *single
	st, release, err := setUp(e, func(f *fleet, _ int) (func() error, error) {
		var err error
		srv, err = startSingle(f.cs, e.trace)
		return func() error { srv.stop(); return nil }, err
	})
	if err != nil {
		return nil, err
	}
	defer release() //nolint:errcheck // stop reports nothing
	out.fail(st.f.certCheck)
	m, _, err := measureFrozen(e, out, st.f, srv.send, func() []*obs.Obs { return []*obs.Obs{srv.o} })
	if err != nil {
		return nil, err
	}
	return out, st.report(out, e, m)
}
