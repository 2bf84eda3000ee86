package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mithra/internal/obs"
	"mithra/internal/serve"
	"mithra/internal/watch"
)

const (
	// onlineSampleRate and onlineWindow are the sizing probe's online
	// settings: a quarter of invocations run the precise kernel and the
	// NPU, and the monitor re-checks the guarantee over 64 samples.
	onlineSampleRate = 0.25
	onlineWindow     = 64
	onlineSampleSeed = 11
	// onlineEpisodes is how many distinct traffic streams a run cycles
	// through, each from a fresh node. The final tables depend on which
	// windows happen to fail, so one stream's invocation rate moves with
	// the seed; the run reports the mean over the episodes, and every
	// episode is served at least twice so its final tables can be checked
	// to repeat exactly.
	onlineEpisodes = 4
)

// episode is one traffic stream with its offline decisions under the
// compiled tables.
type episode struct {
	traffic []*stream
	want    [][]bool
}

// onlineWatch is the recheck-mode monitor configuration the online
// server arms.
func onlineWatch() watch.Config {
	return watch.Config{
		Enabled: true,
		Window:  onlineWindow,
		Recheck: watch.Recheck{Enabled: true, RepairEvery: onlineWindow},
	}
}

// startOnline starts a fresh online node from the artifacts: snapshots
// unfrozen, error sampling, the recheck monitor and a WAL directory
// under dir. Every round starts from the same initial snapshots, so its
// fold-ins, and the final tables, are a function of the traffic alone.
func startOnline(f *fleet, dir string, traced bool) (*single, *serve.WAL, error) {
	snaps, err := loadSnapshots(f.cs)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	wal, err := serve.OpenWAL(dir)
	if err != nil {
		return nil, nil, err
	}
	s := &single{reg: serve.NewRegistry(), out: make([]decision, batch)}
	if traced {
		if s.o, err = obs.New(obs.Options{Metrics: true}); err != nil {
			wal.Close() //nolint:errcheck // error path
			return nil, nil, err
		}
	}
	serve.AttachWAL(s.reg, wal, nil, s.o)
	for _, snap := range snaps {
		if _, err := s.reg.Install(snap); err != nil {
			wal.Close() //nolint:errcheck // error path
			return nil, nil, err
		}
		s.benchs = append(s.benchs, snap.Bench)
	}
	s.srv, err = serve.NewServer(s.reg, serve.Config{
		Workers: 1, MaxBatch: batch,
		SampleRate: onlineSampleRate, SampleSeed: onlineSampleSeed,
		WAL: wal, Obs: s.o, Watch: onlineWatch(),
	})
	if err != nil {
		wal.Close() //nolint:errcheck // error path
		return nil, nil, err
	}
	if err := s.listen(); err != nil {
		wal.Close() //nolint:errcheck // error path
		return nil, nil, err
	}
	return s, wal, nil
}

// onlineRound is one round's end state.
type onlineRound struct {
	seg    segment
	digest string
	rate   float64
	rates  []float64 // per benchmark
	counts map[string]float64
}

// serveOnlineRound serves the traffic once through a fresh online node
// and checks the fold-in invariants: an input the initial table routes
// precise is served precise; an input served precise is routed precise
// by the final table; the final tables keep every initial bit.
func serveOnlineRound(f *fleet, ep episode, dir string, traced bool) (onlineRound, error) {
	var r onlineRound
	srv, wal, err := startOnline(f, dir, traced)
	if err != nil {
		return r, err
	}
	defer func() {
		wal.Close() //nolint:errcheck // the directory is removed next
		os.RemoveAll(dir)
	}()
	served := make([][]bool, len(ep.traffic))
	for b, s := range ep.traffic {
		served[b] = make([]bool, len(s.in))
	}
	next := make([]uint32, len(ep.traffic))
	c0 := cpuTime()
	r.seg, err = closedLoop(ep.traffic, next, srv.send, func(b, k0 int, base uint32, resps []decision) error {
		n := len(resps)
		return checkOnlineBatch(ep.traffic[b].bench, base, resps, ep.want[b][k0:k0+n], served[b][k0:k0+n])
	})
	// The drain finishes the monitor's pending work; it is part of the
	// round's CPU cost.
	srv.stop()
	r.seg.cpu = cpuTime() - c0
	if err != nil {
		return r, err
	}
	if traced {
		r.counts = servingCounters(srv.o)
	}
	var raws [][]byte
	for b, c := range f.cs {
		final := srv.reg.Get(c.job.bench).Table
		if r.seg.err == nil {
			r.seg.err = checkMonotone(c.job.bench, c.dep.Table.RawBytes(), final.RawBytes())
		}
		if r.seg.err == nil {
			r.seg.err = checkFinal(c.job.bench, served[b], decisions(final, ep.traffic[b].in))
		}
		raws = append(raws, final.RawBytes())
	}
	r.digest = tableDigest(raws)
	finals := tablesOf(f.cs)
	for i, c := range f.cs {
		finals[i] = srv.reg.Get(c.job.bench).Table
	}
	r.rate = invocationRate(finals, f.held)
	r.rates = benchRates(finals, f.held)
	return r, nil
}

// runOnline is the serve_online workload: the serve traffic with
// snapshots unfrozen. Each round serves one episode's traffic once
// through a fresh node started from the compiled snapshots; an
// episode's final tables must repeat exactly every time it is served.
func runOnline(e env) (*outcome, error) {
	out := &outcome{}
	var eps []episode
	st, _, err := setUp(e, func(f *fleet, s int) (func() error, error) {
		eps = []episode{{f.traffic, f.want}}
		for i := 1; i < onlineEpisodes; i++ {
			tr := streams(e.seed, fmt.Sprintf("traffic-%d", i), streamLen)
			ep := episode{traffic: tr}
			for b, s := range tr {
				ep.want = append(ep.want, decisions(f.cs[b].dep.Table, s.in))
			}
			eps = append(eps, ep)
		}
		srv, wal, err := startOnline(f, filepath.Join(e.work, fmt.Sprintf("setup-%d", s)), e.trace)
		if err != nil {
			return nil, err
		}
		srv.stop()
		return nil, wal.Close()
	})
	if err != nil {
		return nil, err
	}
	out.fail(st.f.certCheck)

	var (
		m        measured
		epSegs   = make([][]segment, len(eps))
		digests  = make([]string, len(eps))
		rates    = make([]float64, len(eps))
		deadline = time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	)
	for r := 0; r < 2*len(eps) || time.Now().Before(deadline); r++ {
		settle()
		i := r % len(eps)
		before := slowdown()
		rd, err := serveOnlineRound(st.f, eps[i], filepath.Join(e.work, fmt.Sprintf("round-%d", r)), e.trace)
		if err != nil {
			return nil, err
		}
		rd.seg.scale((before + slowdown()) / 2)
		out.fail(rd.seg.err)
		if r == i {
			digests[i], rates[i] = rd.digest, rd.rate
			fmt.Fprintf(os.Stderr, "perfbench: serve_online episode %d final tables %s, online invocation rate %.4f:%s\n",
				i, rd.digest, rd.rate, formatRates(st.f.held, rd.rates))
		} else if rd.digest != digests[i] {
			out.fail(fmt.Errorf("episode %d round %d final tables %s, first serving %s", i, r, rd.digest, digests[i]))
		}
		out.attempted += rd.seg.decisions
		m.segs = append(m.segs, rd.seg)
		epSegs[i] = append(epSegs[i], rd.seg)
		m.counters = append(m.counters, rd.counts)
	}
	m.rss = peakRSSMB()
	m.rate = mean(rates)
	// Episodes differ in how many fold-ins and boosts they trigger, so a
	// plain median over rounds would move with how many rounds of each
	// episode fit the run. Each figure is the mean over episodes of the
	// episode's median.
	for _, es := range epSegs {
		f := serveFigures(es)
		for k := range m.figs {
			m.figs[k] += f[k] / float64(len(epSegs))
		}
	}
	return out, st.report(out, e, m)
}
