package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mithra/internal/cluster"
	"mithra/internal/obs"
	"mithra/internal/parallel"
	"mithra/internal/serve"
	"mithra/internal/watch"
)

// The per-layer metrics of a traced run. Each is a timed call into a
// public function on the workload's own artifacts and inputs, or a
// counter the program already exports. Serving counters are per round
// (one pass over the traffic), compile figures per compile round; both
// are medians over the run.

// setCompileLayers reports the compile-side layers as medians over
// rounds (or set-ups).
func setCompileLayers(out *outcome, rounds []map[string]float64) {
	for name, unit := range compileLayerUnits {
		out.set(name, unit, medianOf(rounds, name))
	}
}

// servingCounters sums the serving counters across the given nodes'
// registries (nil: telemetry off).
func servingCounters(nodes ...*obs.Obs) map[string]float64 {
	c := map[string]float64{}
	for _, o := range nodes {
		if o == nil {
			continue
		}
		snap := o.Metrics().Snapshot()
		for _, kv := range snap.Counters {
			name := kv.Name
			switch {
			case name == "serve.batches", name == "serve.sampled", name == "serve.snapshot.swaps",
				name == "serve.cluster.forwards":
				c[name] += float64(kv.Value)
			case strings.HasPrefix(name, "serve.decisions."):
				c["serve.decisions"] += float64(kv.Value)
			case strings.HasPrefix(name, "watch.samples."):
				c["watch.samples"] += float64(kv.Value)
			case strings.HasPrefix(name, "watch.recovery.foldins."):
				c["watch.recovery.foldins"] += float64(kv.Value)
			case strings.HasPrefix(name, "watch.recovery.boosts."):
				c["watch.recovery.boosts"] += float64(kv.Value)
			case strings.HasPrefix(name, "watch.guarantee.transitions."):
				c["watch.guarantee.transitions"] += float64(kv.Value)
			}
		}
	}
	return c
}

// counterDelta is cur - prev per counter.
func counterDelta(prev, cur map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range cur {
		d[k] = v - prev[k]
	}
	return d
}

// counterLayerNames are the serving counters reported per round.
var counterLayerNames = []string{
	"serve.batches", "serve.sampled", "serve.snapshot.swaps", "serve.cluster.forwards",
	"watch.samples", "watch.recovery.foldins", "watch.recovery.boosts", "watch.guarantee.transitions",
}

// timeEach calls fn(i) for i in [0, n) reps times and returns the median
// per-call time in nanoseconds at reference speed (calib.go).
func timeEach(reps, n int, fn func(i int) error) (float64, error) {
	var per []float64
	before := slowdown()
	for r := 0; r < reps; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return median(per) / ((before + slowdown()) / 2), nil
}

// perBench averages a per-benchmark timing over the artifacts.
func perBench(cs []compiled, fn func(b int) (float64, error)) (float64, error) {
	sum := 0.0
	for b := range cs {
		v, err := fn(b)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", cs[b].job.bench, err)
		}
		sum += v
	}
	return sum / float64(len(cs)), nil
}

// sink keeps timed calls' results alive.
var sink int

// servingLayers reports every serving, watch and cluster layer: the
// counters of the workload's rounds and timed calls on its artifacts
// and traffic.
func servingLayers(out *outcome, cs []compiled, traffic []*stream, segs []segment,
	rounds []map[string]float64, work string) error {
	const reps = 5
	for _, name := range counterLayerNames {
		out.set(name, "count", medianOf(rounds, name))
	}
	var sizes []float64
	for _, r := range rounds {
		if r["serve.batches"] > 0 {
			sizes = append(sizes, r["serve.decisions"]/r["serve.batches"])
		}
	}
	out.set("serve.batch_size_mean", "count", median(sizes))

	snaps, err := loadSnapshots(cs)
	if err != nil {
		return err
	}
	n := len(traffic[0].in)
	for _, s := range traffic {
		n = min(n, len(s.in))
	}
	n = min(n, 4096)

	// classifier: scalar Classify and batch ClassifyBatch at the server's
	// batch size, per decision.
	v, err := perBench(cs, func(b int) (float64, error) {
		tab := cs[b].dep.Table
		return timeEach(reps, n, func(i int) error {
			if tab.Classify(traffic[b].in[i]) {
				sink++
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	out.set("classifier.classify_ns", "ns", v)
	dst := make([]bool, batch)
	v, err = perBench(cs, func(b int) (float64, error) {
		tab := cs[b].dep.Table
		ns, err := timeEach(reps, n/batch, func(i int) error {
			tab.ClassifyBatch(traffic[b].in[i*batch:(i+1)*batch], dst)
			return nil
		})
		return ns / batch, err
	})
	if err != nil {
		return err
	}
	out.set("classifier.classify_batch_ns", "ns", v)

	// serve wire: request encode and zero-copy parse.
	var frame []byte
	req := serve.DecideRequest{}
	v, err = perBench(cs, func(b int) (float64, error) {
		req.Bench = cs[b].job.bench
		return timeEach(reps, n, func(i int) error {
			req.ID, req.In = uint32(i), traffic[b].in[i]
			var err error
			frame, err = serve.AppendDecideRequest(frame[:0], &req)
			return err
		})
	})
	if err != nil {
		return err
	}
	out.set("serve.wire_encode_ns", "ns", v)
	var parsed serve.DecideRequest
	v, err = perBench(cs, func(b int) (float64, error) {
		frames := make([][]byte, n)
		r := serve.DecideRequest{Bench: cs[b].job.bench}
		for i := range frames {
			r.ID, r.In = uint32(i), traffic[b].in[i]
			f, err := serve.AppendDecideRequest(nil, &r)
			if err != nil {
				return 0, err
			}
			frames[i] = f[4:]
		}
		return timeEach(reps, n, func(i int) error {
			_, err := serve.ParseDecideRequestInto(frames[i], &parsed)
			return err
		})
	})
	if err != nil {
		return err
	}
	out.set("serve.wire_parse_ns", "ns", v)

	// serve engine: the hermetic steady decide and the registry lookup on
	// a frozen server over the same snapshots.
	reg := serve.NewRegistry(snaps...)
	srv, err := serve.NewServer(reg, serve.Config{Workers: 1, MaxBatch: batch, Freeze: true})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // never served a connection
	}()
	steady, err := perBench(cs, func(b int) (float64, error) {
		var total float64
		const inputs = 16
		for k := 0; k < inputs; k++ {
			drv, err := srv.SteadyDriver(cs[b].job.bench, traffic[b].in[k*n/inputs])
			if err != nil {
				return 0, err
			}
			ns, err := timeEach(reps, n/inputs, func(int) error { return drv.Step() })
			if err != nil {
				return 0, err
			}
			total += ns
		}
		return total / inputs, nil
	})
	if err != nil {
		return err
	}
	out.set("serve.decide_steady_ns", "ns", steady)
	v, err = perBench(cs, func(b int) (float64, error) {
		bench := cs[b].job.bench
		return timeEach(reps, n, func(int) error {
			if reg.Get(bench) == nil {
				return fmt.Errorf("registry lost %s", bench)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	out.set("serve.registry_get_ns", "ns", v)
	var p50 []float64
	for _, s := range segs {
		p50 = append(p50, s.p50())
	}
	out.set("serve.transport_us", "us", median(p50)-batch*steady/1e3)

	// serve online: the snapshot's error probe (precise kernel + NPU),
	// a fold-in of 64 inputs, and a WAL-attached install.
	v, err = perBench(cs, func(b int) (float64, error) {
		probe := snaps[b].NewProbe()
		ns, err := timeEach(reps, min(n, 1024), func(i int) error {
			if probe(traffic[b].in[i]) > snaps[b].Threshold {
				sink++
			}
			return nil
		})
		return ns / 1e3, err
	})
	if err != nil {
		return err
	}
	out.set("serve.probe_us", "us", v)
	const foldN = 64
	v, err = perBench(cs, func(b int) (float64, error) {
		ns, err := timeEach(reps, 8, func(int) error {
			sink += int(snaps[b].WithFoldIn(traffic[b].in[:foldN]).Version)
			return nil
		})
		return ns / 1e6, err
	})
	if err != nil {
		return err
	}
	out.set("serve.foldin_ms", "ms", v)
	if v, err = installMS(cs, traffic, filepath.Join(work, "install-wal")); err != nil {
		return err
	}
	out.set("serve.install_ms", "ms", v)

	// watch: a standalone monitor fed the sampled sequence the online
	// server would see on this traffic.
	v, err = perBench(cs, func(b int) (float64, error) {
		seq := sampledSequence(snaps[b], traffic[b].in)
		if len(seq) == 0 {
			return 0, fmt.Errorf("no sampled observations")
		}
		ns, err := timeEach(reps, 1, func(int) error {
			mon := watch.NewMonitor(cs[b].job.bench, snaps[b].G, snaps[b].Ref, onlineWatch(), nil)
			for _, ob := range seq {
				mon.Observe(ob)
			}
			mon.Flush()
			return nil
		})
		return ns / float64(len(seq)), err
	})
	if err != nil {
		return err
	}
	out.set("watch.observe_ns", "ns", v)

	return clusterLayers(out, cs, traffic, n, work)
}

// sampledSequence is the observation sequence the online sampler draws
// from in, in ID order: bad from the snapshot's error probe, precise
// from its table.
func sampledSequence(snap *serve.Snapshot, in [][]float64) []watch.Obs {
	seed := parallel.Seed(onlineSampleSeed, snap.Bench)
	probe := snap.NewProbe()
	var seq []watch.Obs
	for i, x := range in {
		if !serve.SampleHit(seed, uint32(i), onlineSampleRate) {
			continue
		}
		seq = append(seq, watch.Obs{ID: uint32(i), Bad: probe(x) > snap.Threshold,
			Precise: snap.Table.Classify(x), In: x})
	}
	return seq
}

// installMS times Registry.Install of a folded-in snapshot through an
// attached WAL (export, write, fsync, rename), per install.
func installMS(cs []compiled, traffic []*stream, dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	wal, err := serve.OpenWAL(dir)
	if err != nil {
		return 0, err
	}
	defer wal.Close() //nolint:errcheck // read-only after the timings
	snaps, err := loadSnapshots(cs)
	if err != nil {
		return 0, err
	}
	reg := serve.NewRegistry()
	serve.AttachWAL(reg, wal, nil, nil)
	for _, s := range snaps {
		if _, err := reg.Install(s); err != nil {
			return 0, err
		}
	}
	return perBench(cs, func(b int) (float64, error) {
		next := snaps[b].WithFoldIn(traffic[b].in[:64])
		ns, err := timeEach(3, 4, func(int) error {
			_, err := reg.Install(next)
			return err
		})
		return ns / 1e6, err
	})
}

// clusterLayers times the cluster's per-request work on this traffic:
// ring routing, the CPU side of a forward hop, and the decision-log
// append with its share of a batch flush.
func clusterLayers(out *outcome, cs []compiled, traffic []*stream, n int, work string) error {
	const reps = 5
	spec, err := cluster.ParseSpec("seed 7\nsample-rate 0\nsample-seed 11\n" +
		"node n0 127.0.0.1:1\nnode n1 127.0.0.1:2\nsplit " + splitBench + " 8\n")
	if err != nil {
		return err
	}
	router, err := cluster.NewRouter(spec)
	if err != nil {
		return err
	}
	v, err := perBench(cs, func(b int) (float64, error) {
		bench := cs[b].job.bench
		return timeEach(reps, n, func(i int) error {
			sink += len(router.Route(bench, uint32(i), traffic[b].in[i]))
			return nil
		})
	})
	if err != nil {
		return err
	}
	out.set("cluster.route_ns", "ns", v)
	v, err = perBench(cs, func(b int) (float64, error) {
		hop, err := cluster.NewHopDriver(spec, cs[b].job.bench, 1, traffic[b].in[0])
		if err != nil {
			return 0, err
		}
		return timeEach(reps, n, func(int) error { return hop.Step() })
	})
	if err != nil {
		return err
	}
	out.set("cluster.hop_ns", "ns", v)
	path := filepath.Join(work, "record.dlog")
	rec, err := cluster.OpenRecorder(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	v, err = perBench(cs, func(b int) (float64, error) {
		bench := cs[b].job.bench
		ns, err := timeEach(reps, n/batch, func(i int) error {
			for k := 0; k < batch; k++ {
				rec.Record(bench, uint32(i*batch+k), k%2 == 0)
			}
			return rec.Flush()
		})
		return ns / batch, err
	})
	if cerr := rec.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	out.set("cluster.record_ns", "ns", v)
	return nil
}
