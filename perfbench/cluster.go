package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"

	"mithra/internal/cluster"
	"mithra/internal/obs"
	"mithra/internal/serve"
)

const (
	// splitBench is the benchmark the cluster spec splits across nodes
	// by MISR signature slot; the others live whole on their ring owner.
	splitBench = "sobel"
	// pinnedEvery sends every pinnedEvery-th batch through a plain client
	// pinned to the first node, so those requests forward one hop.
	pinnedEvery = 8
)

// ring is an in-process cluster of frozen nodes, each a server with its
// own registry, cluster node and decision log.
type ring struct {
	spec    *cluster.Spec
	nodes   []*cluster.Node
	recs    []*cluster.Recorder
	dlogs   []string
	servers []*single
	rc      *cluster.RoutedClient
	pinned  *serve.Client
	benchs  []string
	pout    []decision
	batches int
}

// clusterSpec writes the spec for nodes on lns.
func clusterSpec(lns []net.Listener) (*cluster.Spec, error) {
	var b strings.Builder
	b.WriteString("seed 7\nsample-rate 0\nsample-seed 11\n")
	for i, ln := range lns {
		fmt.Fprintf(&b, "node n%d %s\n", i, ln.Addr().String())
	}
	fmt.Fprintf(&b, "split %s 8\n", splitBench)
	return cluster.ParseSpec(b.String())
}

// startRing boots min(2, nproc) nodes serving the artifacts, each
// writing its decision log under dir, and dials the clients.
func startRing(cs []compiled, dir string, traced bool) (*ring, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := min(2, nproc())
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close() //nolint:errcheck // error path
			}
			return nil, err
		}
		lns[i] = ln
	}
	r := &ring{pout: make([]decision, batch)}
	for _, c := range cs {
		r.benchs = append(r.benchs, c.job.bench)
	}
	var err error
	if r.spec, err = clusterSpec(lns); err != nil {
		return nil, err
	}
	for i, ln := range lns {
		if err := r.startNode(i, ln, cs, dir, traced); err != nil {
			for _, l := range lns[i+1:] {
				l.Close() //nolint:errcheck // error path
			}
			r.stop()
			return nil, err
		}
	}
	if r.rc, err = cluster.NewRoutedClient(r.spec, false, serve.RetryConfig{}); err != nil {
		r.stop()
		return nil, err
	}
	if r.pinned, err = serve.Dial("tcp", r.spec.Addr("n0")); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

func (r *ring) startNode(i int, ln net.Listener, cs []compiled, dir string, traced bool) error {
	name := fmt.Sprintf("n%d", i)
	snaps, err := loadSnapshots(cs)
	if err != nil {
		ln.Close() //nolint:errcheck // error path
		return err
	}
	s := &single{reg: serve.NewRegistry(snaps...)}
	if traced {
		if s.o, err = obs.New(obs.Options{Metrics: true}); err != nil {
			ln.Close() //nolint:errcheck // error path
			return err
		}
	}
	dlog := filepath.Join(dir, name+".dlog")
	rec, err := cluster.OpenRecorder(dlog)
	if err != nil {
		ln.Close() //nolint:errcheck // error path
		return err
	}
	r.recs = append(r.recs, rec)
	r.dlogs = append(r.dlogs, dlog)
	node, err := cluster.NewNode(cluster.NodeConfig{
		Spec: r.spec, Self: name, Registry: s.reg, Recorder: rec, Obs: s.o,
	})
	if err != nil {
		ln.Close() //nolint:errcheck // error path
		return err
	}
	r.nodes = append(r.nodes, node)
	s.srv, err = serve.NewServer(s.reg, serve.Config{
		Workers: 1, MaxBatch: batch, Freeze: true, Obs: s.o, Cluster: node,
	})
	if err != nil {
		ln.Close() //nolint:errcheck // error path
		return err
	}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // returns nil once drained
	}()
	r.servers = append(r.servers, s)
	return nil
}

// send routes most batches through the ring-aware client and every
// pinnedEvery-th through the client pinned to n0.
func (r *ring) send(b int, base uint32, ins [][]float64) ([]decision, error) {
	r.batches++
	if r.batches%pinnedEvery == 0 {
		return r.pinned.DecideBatchInto(r.benchs[b], base, ins, r.pout)
	}
	return r.rc.DecideBatch(r.benchs[b], base, ins)
}

// stop closes the clients, drains every server, and closes the nodes
// and decision logs. It returns the first decision-log close error.
func (r *ring) stop() error {
	if r.rc != nil {
		r.rc.Close() //nolint:errcheck // teardown
	}
	if r.pinned != nil {
		r.pinned.Close() //nolint:errcheck // teardown
	}
	for _, s := range r.servers {
		s.shutdown()
	}
	for _, n := range r.nodes {
		n.Close()
	}
	var first error
	for _, rec := range r.recs {
		if err := rec.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.rc, r.pinned, r.servers, r.nodes, r.recs = nil, nil, nil, nil, nil
	return first
}

func (r *ring) obses() []*obs.Obs {
	var out []*obs.Obs
	for _, s := range r.servers {
		out = append(out, s.o)
	}
	return out
}

// runCluster is the serve_cluster workload: frozen snapshots on an
// in-process cluster, ring-routed traffic with a pinned share that
// forwards one hop, and every node logging its decisions. The merged
// log must equal the offline replay.
func runCluster(e env) (*outcome, error) {
	out := &outcome{}
	var rg *ring
	st, release, err := setUp(e, func(f *fleet, s int) (func() error, error) {
		var err error
		rg, err = startRing(f.cs, filepath.Join(e.work, fmt.Sprintf("ring-%d", s)), e.trace)
		if err != nil {
			return nil, err
		}
		return rg.stop, nil
	})
	if err != nil {
		return nil, err
	}
	out.fail(st.f.certCheck)
	m, next, err := measureFrozen(e, out, st.f, rg.send, rg.obses)
	if rerr := release(); err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}

	// Offline replay: request IDs 0..next-1 of each benchmark, in order.
	var want []*serve.DecisionSet
	for b, s := range st.f.traffic {
		ds := serve.NewDecisionSet(s.bench)
		for id := uint32(0); id < next[b]; id++ {
			ds.Append(st.f.want[b][int(id)%len(s.in)])
		}
		want = append(want, ds)
	}
	out.fail(checkDecisionLog(rg.dlogs, want))
	return out, st.report(out, e, m)
}
