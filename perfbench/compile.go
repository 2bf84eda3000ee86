package main

import (
	"bytes"
	"fmt"
	"time"

	"mithra/internal/axbench"
	"mithra/internal/core"
	"mithra/internal/obs"
	"mithra/internal/parallel"
	"mithra/internal/stats"
)

// compileJob is one benchmark compilation: options and guarantee.
type compileJob struct {
	bench string
	opts  core.Options
	g     stats.Guarantee
}

// testGuarantee is the guarantee 24 test-scale compile datasets can
// certify: 5% quality loss, 60% success, 90% one-sided confidence.
func testGuarantee() stats.Guarantee {
	return stats.Guarantee{QualityLoss: 0.05, SuccessRate: 0.6, Confidence: 0.9}
}

// servingJobs are the six Table I benchmarks at test scale: the
// artifacts every serving workload serves.
func servingJobs(seed uint64) []compileJob {
	var jobs []compileJob
	for _, name := range axbench.Names() {
		opts := core.TestOptions()
		opts.Seed = seed
		jobs = append(jobs, compileJob{bench: name, opts: opts, g: testGuarantee()})
	}
	return jobs
}

// compileMinRounds is the fewest compile rounds a run makes.
const compileMinRounds = 2

// mediumSobel is sobel at medium scale (128x128 images) under the
// paper's guarantee (90% success at two-sided 95%). At test scale
// capture and threshold search take under 1% of a compile; at this size
// every stage of the pipeline takes a visible share. Dataset counts and
// training budgets are trimmed from the medium defaults so that a
// compile round fits a run twice: 60 compile datasets still certify the
// paper's guarantee (59 of 60 must meet it).
func mediumSobel(seed uint64) compileJob {
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.CompileN = 60
	opts.ValidateN = 8
	opts.TrainDatasets = 8
	opts.MaxTrainSamples = 4000
	opts.NeuralOpts.HiddenSizes = []int{4, 8}
	opts.NeuralOpts.Train.Epochs = 30
	return compileJob{bench: "sobel", opts: opts, g: stats.PaperGuarantee()}
}

// compiled is one finished compilation and the time of each pipeline
// call.
type compiled struct {
	job  compileJob
	dep  *core.Deployment
	blob []byte
	eval core.EvalResult
	// context, deploy, export and evaluate durations.
	dur [4]time.Duration
	// slow is the slowdown the compilation ran at (calib.go).
	slow float64
}

// seconds is the compilation's time at reference speed.
func (c compiled) seconds() float64 {
	return (c.dur[0] + c.dur[1] + c.dur[2] + c.dur[3]).Seconds() / c.slow
}

// compileOne runs core.NewContext → Deploy → Export →
// EvaluateValidation(DesignTable) at the given worker count. With o set,
// the pipeline's spans and counters land there.
func compileOne(j compileJob, workers int, o *obs.Obs) (compiled, error) {
	c := compiled{job: j}
	b, err := axbench.New(j.bench)
	if err != nil {
		return c, err
	}
	opts := j.opts
	opts.Parallelism = workers
	opts.Obs = o
	t := time.Now()
	ctx, err := core.NewContext(b, opts)
	if err != nil {
		return c, fmt.Errorf("%s: %w", j.bench, err)
	}
	c.dur[0] = time.Since(t)
	t = time.Now()
	if c.dep, err = ctx.Deploy(j.g); err != nil {
		return c, fmt.Errorf("%s: %w", j.bench, err)
	}
	c.dur[1] = time.Since(t)
	t = time.Now()
	if c.blob, err = c.dep.Export(); err != nil {
		return c, fmt.Errorf("%s: %w", j.bench, err)
	}
	c.dur[2] = time.Since(t)
	t = time.Now()
	c.eval = c.dep.EvaluateValidation(core.DesignTable)
	c.dur[3] = time.Since(t)
	return c, nil
}

// compileAll compiles every job in order, calibrating between jobs.
// With layers non-nil the compilations are traced and their per-layer
// figures are added to layers.
func compileAll(jobs []compileJob, workers int, layers map[string]float64) ([]compiled, error) {
	out := make([]compiled, 0, len(jobs))
	before := slowdown()
	for _, j := range jobs {
		var o *obs.Obs
		var journal bytes.Buffer
		if layers != nil {
			var err error
			if o, err = obs.New(obs.Options{Trace: true, Metrics: true, JournalWriter: &journal}); err != nil {
				return nil, err
			}
		}
		c, err := compileOne(j, workers, o)
		if err != nil {
			return nil, err
		}
		after := slowdown()
		c.slow, before = (before+after)/2, after
		if layers != nil {
			if err := addCompileLayers(layers, c, o, &journal); err != nil {
				return nil, err
			}
		}
		out = append(out, c)
	}
	return out, nil
}

// spanLayers maps the pipeline's span names to per-layer metrics
// (seconds, summed over a round).
var spanLayers = map[string]string{
	"npu.train":               "npu.train_s",
	"capture.compile":         "trace.capture_s",
	"capture.validate":        "trace.capture_s",
	"threshold.search":        "threshold.search_s",
	"classifier.table.train":  "classifier.table_train_s",
	"classifier.neural.train": "classifier.neural_train_s",
	"random.tune":             "core.random_tune_s",
}

// counterLayers are the pipeline counters reported per round.
var counterLayers = []string{
	"npu.invocations", "capture.datasets", "threshold.evaluations", "threshold.iterations",
	"classifier.table.candidates", "classifier.neural.candidates",
}

// addCompileLayers folds one traced compilation into layers: the timed
// core calls, the spans the pipeline exports (read back from its
// journal) and its counters.
func addCompileLayers(layers map[string]float64, c compiled, o *obs.Obs, journal *bytes.Buffer) error {
	layers["core.context_s"] += c.dur[0].Seconds() / c.slow
	layers["core.deploy_s"] += c.dur[1].Seconds() / c.slow
	layers["core.export_s"] += c.dur[2].Seconds() / c.slow
	layers["core.evaluate_s"] += c.dur[3].Seconds() / c.slow
	for _, name := range counterLayers {
		layers[name] += float64(o.Counter(name).Value())
	}
	if err := o.Close(nil); err != nil {
		return err
	}
	entries, err := obs.ReadJournal(journal)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e["t"] != "span" {
			continue
		}
		name, _ := e["name"].(string)
		if metric, ok := spanLayers[name]; ok {
			ns, _ := e["dur_ns"].(float64)
			layers[metric] += ns / 1e9 / c.slow
		}
	}
	return nil
}

// compileLayerUnits lists every compile-side per-layer metric with its
// unit.
var compileLayerUnits = map[string]string{
	"core.context_s": "s", "core.deploy_s": "s", "core.export_s": "s", "core.evaluate_s": "s",
	"npu.train_s": "s", "trace.capture_s": "s", "threshold.search_s": "s",
	"classifier.table_train_s": "s", "classifier.neural_train_s": "s", "core.random_tune_s": "s",
	"npu.invocations": "count", "capture.datasets": "count", "threshold.evaluations": "count",
	"threshold.iterations": "count", "classifier.table.candidates": "count",
	"classifier.neural.candidates": "count",
}

// checkCompiled checks one compilation: its certificate against the
// independent binomial test; its artifact byte for byte against the
// reference compiled at another worker count; and the artifact reloaded
// through core.LoadProgram deciding every held-out input exactly as the
// in-memory deployment does.
func checkCompiled(c compiled, ref *compiled, held [][]float64) error {
	if err := checkCertificate(c.job.bench, c.dep.Th, c.job.g); err != nil {
		return err
	}
	if ref != nil && !bytes.Equal(c.blob, ref.blob) {
		return fmt.Errorf("%s: artifact differs between worker counts (%d vs %d bytes)",
			c.job.bench, len(c.blob), len(ref.blob))
	}
	p, err := core.LoadProgram(c.blob)
	if err != nil {
		return fmt.Errorf("%s: reload artifact: %w", c.job.bench, err)
	}
	for i, in := range held {
		if got, want := p.Table.Classify(in), c.dep.Table.Classify(in); got != want {
			return fmt.Errorf("%s: reloaded artifact decides held-out input %d precise=%v, the deployment %v",
				c.job.bench, i, got, want)
		}
	}
	return nil
}

// runCompile is the compile workload: whole compile rounds (six
// benchmarks at test scale and sobel at medium scale, one worker) for
// the run's duration, at least compileMinRounds of them. Round r
// compiles datasets drawn from its own seed, derived from the run's, so
// a run's gains and invocation rate average over several compile sets.
// Set-up generates the held-out stream. After the measured rounds,
// round 0's jobs are compiled again at nproc workers and must match its
// artifacts byte for byte; every round's certificates and reloaded
// artifacts are checked; and the last round's six test-scale artifacts
// are served over loopback, where the served decisions must equal the
// offline classifier's.
func runCompile(e env) (*outcome, error) {
	out := &outcome{}
	jobsFor := func(r int) []compileJob {
		seed := parallel.Seed(e.seed, fmt.Sprintf("compile-round-%d", r))
		return append(servingJobs(seed), mediumSobel(seed))
	}
	nServed := len(servingJobs(0))
	var (
		held   []*stream
		setups []float64
	)
	for s := 0; s < setupRuns; s++ {
		settle()
		secs, _, _ := timed(func() error {
			held = heldOutStreams()
			return nil
		})
		setups = append(setups, secs)
	}

	settle()
	var (
		rounds   []float64
		speedups []float64
		energies []float64
		rates    []float64
		roundLay []map[string]float64
		artifact [][]compiled
		deadline = time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	)
	for r := 0; r < compileMinRounds || time.Now().Before(deadline); r++ {
		var lay map[string]float64
		if e.trace {
			lay = map[string]float64{}
		}
		cs, err := compileAll(jobsFor(r), 1, lay)
		if err != nil {
			return nil, err
		}
		out.attempted += int64(len(cs))
		total := 0.0
		var sp, en []float64
		for _, c := range cs {
			total += c.seconds()
			sp = append(sp, c.eval.Speedup)
			en = append(en, c.eval.EnergyReduction)
		}
		rounds = append(rounds, total)
		speedups = append(speedups, geomean(sp))
		energies = append(energies, geomean(en))
		rates = append(rates, invocationRate(tablesOf(cs[:nServed]), held))
		roundLay = append(roundLay, lay)
		artifact = append(artifact, cs)
	}
	rss := peakRSSMB()

	// Checks: certificates, reload, and byte identity of round 0 against
	// a compile of the same jobs at nproc workers.
	var refs []compiled
	err := withProcs(nproc(), func() error {
		var err error
		refs, err = compileAll(jobsFor(0), nproc(), nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	for r, cs := range artifact {
		for i, c := range cs {
			var ref *compiled
			if r == 0 {
				ref = &refs[i]
			}
			out.fail(checkCompiled(c, ref, heldFor(held, c.job.bench)))
		}
	}
	last := artifact[len(artifact)-1][:nServed]
	artifact = nil
	settle()
	srv, err := startSingle(last, e.trace)
	if err != nil {
		return nil, err
	}
	segs, err := srv.serveHeldOut(held)
	srv.stop()
	if err != nil {
		return nil, err
	}
	for _, seg := range segs {
		out.fail(seg.err)
		out.attempted += seg.decisions
	}
	// Serving counters per segment.
	perPass := servingCounters(srv.o)
	for k := range perPass {
		perPass[k] /= float64(len(segs))
	}

	if e.trace {
		setCompileLayers(out, roundLay)
		return out, servingLayers(out, last, held, segs, []map[string]float64{perPass}, e.work)
	}
	out.set("setup_s", "s", median(setups))
	out.set("compile_s", "s", median(rounds))
	out.set("speedup", "x", mean(speedups))
	out.set("energy_reduction", "x", mean(energies))
	out.set("online_invocation_rate", "ratio", mean(rates))
	out.set("peak_rss_mb", "MB", rss)
	setServeMetrics(out, serveFigures(segs))
	return out, nil
}

// medianOf is the median of one named figure across per-round maps.
func medianOf(maps []map[string]float64, name string) float64 {
	v := make([]float64, 0, len(maps))
	for _, m := range maps {
		v = append(v, m[name])
	}
	return median(v)
}
