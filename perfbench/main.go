// Command perfbench is the repository benchmark: three seeded, fixed-size
// workloads driven against the labstor facade, runtime.Client and
// serve.Conn, with every read checked against a model of what was written.
//
//	bash perfbench/run.sh --workload kv-hot --seed 1 --seconds 30 --trace 0
//
// A run repeats trials until --seconds have passed. Each trial boots a
// fresh two-worker platform, preloads the dataset, runs an untimed warm-up
// from the seeded stream, then a fixed count of timed ops, then verifies
// the whole dataset. Wall-clock metrics are medians over the trials;
// counts and virtual time come from the first trial, so they depend only
// on the seed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// metrics instead: it runs the layer ladder, alternates untraced and
// traced trials, reads each layer's counters around the first traced
// trial, and writes the benchmark's spans as Chrome trace-event JSON under
// --out. The last line of standard output is the result object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	gort "runtime"
	"runtime/debug"
	"slices"
	"time"
)

// workload is one benchmark workload.
type workload struct {
	name string
	// ops is the timed op count per trial; a tenth as many warm up first.
	ops    int
	stream func(seed int64, n int) []op
	open   func() (runner, error)
	// Which layers the workload's own stack exercises; the others are
	// measured on their ladder rung.
	kvs, fs, serve bool
}

var workloads = []workload{
	{name: "kv-hot", ops: 160000, stream: kvStream, open: openKVHot, kvs: true},
	{name: "fs-cold", ops: 120000, stream: fsStream, open: openFSCold, fs: true},
	{name: "kv-net", ops: 96000, stream: kvStream, open: openKVNet, kvs: true, serve: true},
}

// trial is what one trial measured.
type trial struct {
	setup  time.Duration
	wall   time.Duration // timed phase
	cpu    float64       // process CPU seconds in the timed phase
	virtUS float64       // modeled µs per op
	heap   float64       // live heap after the timed phase
	d      delta
	traced bool
	// p50/p90 are the trial's wall latency percentiles by kind (µs) over
	// its samples timed ops.
	p50, p90 [3]float64
	samples  [3]int
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: kv-hot, fs-cold or kv-net")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "how long to keep running trials")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/perfbench", "directory for the trace output")
	opsFlag := flag.Int("ops", 0, "timed ops per trial (0 = the workload's size)")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload kv-hot|fs-cold|kv-net and --trace 0|1 (got %q, %d)\n", *name, *trace)
		return 2
	}
	ops := w.ops
	if *opsFlag > 0 {
		ops = *opsFlag
	}
	warm := ops / 10
	stream := w.stream(*seed, warm+ops)
	budget := time.Duration(*seconds) * time.Second
	start := time.Now()

	var tr *tracer
	var lad *ladder
	total := &recorder{}
	if *trace == 1 {
		tr = newTracer(32)
		var err error
		if lad, err = runLadder(*seed, tr); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: ladder: %v\n", err)
			return 1
		}
		total.merge(&lad.out)
	}

	// Untraced runs need three trials for a setup median; traced runs need
	// one trial each way.
	minTrials := 3
	if tr != nil {
		minTrials = 2
	}
	var trials []trial
	for i := 0; len(trials) < minTrials || time.Since(start) < budget; i++ {
		var ttr *tracer
		if tr != nil && i%2 == 1 {
			ttr = tr
			tr.track = fmt.Sprintf("trial %d", i)
		}
		t, err := runTrial(w, stream, warm, total, ttr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trial %d: %v\n", i, err)
			return 1
		}
		trials = append(trials, t)
	}

	m := metricSet{}
	var sources map[string]string
	if tr == nil {
		endToEnd(m, total, trials)
	} else {
		sources = perLayer(m, w, lad, trials)
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		err := os.MkdirAll(*out, 0o755)
		if err == nil {
			err = tr.writeChrome(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
		}
		if tr.dropped > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: span buffer full, %d spans dropped\n", tr.dropped)
		}
	}

	prov := map[string]any{
		"workload": w.name, "seed": *seed, "git_rev": gitRev(),
		"go": gort.Version(), "nproc": gort.NumCPU(), "gomaxprocs": gort.GOMAXPROCS(0),
		"trials": len(trials), "timed_ops_per_trial": ops, "warmup_ops_per_trial": warm,
		"samples_per_trial":  map[string]int{"read": trials[0].samples[kRead], "write": trials[0].samples[kWrite], "meta": trials[0].samples[kMeta]},
		"exact_metrics_from": "trial 0",
	}
	if sources != nil {
		prov["per_layer_source"] = sources
		prov["ladder_ns_per_op"] = lad.ns
	}
	if total.firstErr != nil {
		prov["first_error"] = total.firstErr.Error()
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; first: %v\n", total.failed, total.attempted, total.firstErr)
	}
	printJSON(map[string]any{"provenance": prov})
	printJSON(map[string]any{
		"correct": total.failed == 0, "attempted": total.attempted, "failed": total.failed, "metrics": m,
	})
	if total.failed > 0 {
		return 1
	}
	return 0
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	fmt.Println(string(b))
}

func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runTrial boots w, preloads and warms it up (the set-up time), runs the
// timed ops, then verifies the dataset. Op outcomes accumulate in total.
func runTrial(w *workload, stream []op, warm int, total *recorder, tr *tracer) (trial, error) {
	t0 := time.Now()
	r, err := w.open()
	if err != nil {
		return trial{}, err
	}
	defer r.close()
	rec := &recorder{tr: tr}
	for k := range rec.lat {
		rec.lat[k] = make([]int64, 0, len(stream))
	}
	r.exec(stream[:warm], rec)
	t := trial{setup: time.Since(t0), traced: tr != nil}

	c0, hasClock := r.clockNS()
	ub := r.userBytes()
	a := takeSnapshot(r.env())
	w0, wns0 := rec.windows, rec.windowNS
	rec.timing = true
	wall0 := time.Now()
	r.exec(stream[warm:], rec)
	t.wall = time.Since(wall0)
	rec.timing = false
	b := takeSnapshot(r.env())
	c1, _ := r.clockNS()
	ops := len(stream) - warm
	t.d = delta{a: a, b: b, ops: float64(ops), userBytes: r.userBytes() - ub}
	t.d.windows, t.d.windowNS = rec.windows-w0, rec.windowNS-wns0
	t.cpu = t.d.cpuSeconds()
	if hasClock {
		t.virtUS = float64(c1-c0) / 1e3 / float64(ops)
	} else {
		t.virtUS = t.d.attrVirtUSPerOp()
	}
	t.heap = heapLiveMiB()

	r.verify(rec)
	total.merge(rec)
	for k, lat := range rec.lat {
		slices.Sort(lat)
		t.p50[k], t.p90[k], t.samples[k] = percentileUS(lat, 0.50), percentileUS(lat, 0.90), len(lat)
	}
	return t, nil
}

// percentileUS is the nearest-rank q-quantile of sorted ns samples, in µs.
func percentileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	i = min(max(i-1, 0), len(sorted)-1)
	return float64(sorted[i]) / 1e3
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd fills the end-to-end metrics. Wall-clock figures are medians
// over the trials, so a trial that lands in an unusual scheduling mode
// does not move them; counts and virtual time come from the first trial.
func endToEnd(m metricSet, total *recorder, trials []trial) {
	overTrials := func(f func(t trial) float64) float64 {
		xs := make([]float64, len(trials))
		for i, t := range trials {
			xs[i] = f(t)
		}
		return median(xs)
	}
	m.add("read_p50_us", "us", overTrials(func(t trial) float64 { return t.p50[kRead] }))
	m.add("read_p90_us", "us", overTrials(func(t trial) float64 { return t.p90[kRead] }))
	m.add("write_p50_us", "us", overTrials(func(t trial) float64 { return t.p50[kWrite] }))
	m.add("write_p90_us", "us", overTrials(func(t trial) float64 { return t.p90[kWrite] }))
	m.add("meta_p50_us", "us", overTrials(func(t trial) float64 { return t.p50[kMeta] }))
	m.add("ops_per_cpu_s", "ops/cpu_s", overTrials(func(t trial) float64 { return ratio(t.d.ops, t.cpu) }))
	first := trials[0]
	m.add("virt_us_per_op", "virt_us", first.virtUS)
	m.add("allocs_per_op", "allocs/op", first.d.allocsPerOp())
	m.add("copies_per_op", "copies/op", first.d.copiesPerOp())
	m.add("heap_live_mib", "MiB", first.heap)
	m.add("setup_s", "s", overTrials(func(t trial) float64 { return t.setup.Seconds() }))
	m.add("ok_ratio", "ratio", ratio(float64(total.attempted-total.failed), float64(total.attempted)))
}

// perLayer fills the per-layer metrics from the first traced trial and
// the ladder, and returns where each group was measured.
func perLayer(m metricSet, w *workload, lad *ladder, trials []trial) map[string]string {
	var first trial
	var wallOn, wallOff []float64
	for _, t := range trials {
		perOp := float64(t.wall) / t.d.ops
		if t.traced {
			if wallOn == nil {
				first = t
			}
			wallOn = append(wallOn, perOp)
		} else {
			wallOff = append(wallOff, perOp)
		}
	}
	d := first.d
	src := map[string]string{}
	pick := func(group string, here bool, rung delta, fill func(delta, metricSet)) {
		if here {
			fill(d, m)
			src[group] = "workload"
			return
		}
		fill(rung, m)
		src[group] = "rung " + group
	}

	m.add("ipc.rtt_ns", "ns", lad.ns["ipc"])
	d.ipcMetrics(m)
	m.add("runtime.dummy_op_ns", "ns", lad.ns["runtime"])
	d.runtimeMetrics(m)
	m.add("labkvs.op_ns", "ns", lad.ns["kv.nolru"]-lad.ns["runtime"]-lad.ns["device"])
	pick("kv", w.kvs, lad.kv, delta.labkvsMetrics)
	m.add("labfs.op_ns", "ns", lad.ns["fs.nolru"]-lad.ns["runtime"]-lad.ns["device"])
	pick("fs", w.fs, lad.fs, delta.labfsMetrics)
	m.add("lru.op_ns", "ns", lad.ns["kv"]-lad.ns["kv.nolru"])
	d.lruMetrics(m)
	m.add("device.op_ns", "ns", lad.ns["device"])
	d.deviceMetrics(m)
	m.add("serve.op_ns", "ns", lad.ns["serve"]-lad.ns["runtime.batch"])
	pick("serve", w.serve, lad.serve, delta.serveMetrics)
	if w.serve {
		m.add("serve.window_us", "us", ratio(float64(d.windowNS)/1e3, float64(d.windows)))
	} else {
		m.add("serve.window_us", "us", lad.serveWindowUS)
	}
	d.goMetrics(m)
	on, off := median(wallOn), median(wallOff)
	m.add("trace.overhead_pct", "%", 100*ratio(on-off, off))
	return src
}
