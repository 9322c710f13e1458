package main

import (
	"fmt"
	gort "runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"labstor"
	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/mods/lru"
	"labstor/internal/runtime"
	"labstor/internal/telemetry"
	"labstor/internal/vtime"
)

// platformConfig is the runtime every workload and ladder rung boots: two
// workers (one per core of the reference host), round-robin queue
// placement and no rebalance ticker, so virtual time and counts depend only
// on the seed. Batch lets a worker drain a served window in one scan.
var platformConfig = labstor.Config{Workers: 2, Policy: "round_robin", Batch: 16}

// env is one booted platform and the handles the counters are read from.
type env struct {
	p     *labstor.Platform
	dev   *device.Device
	cache *lru.Cache // nil when the stack has no cache
	mount string
}

// bootEnv starts a platform with one NVMe device and mounts spec on it.
// cacheUUID names the stack's lru vertex ("" for none).
func bootEnv(spec, mount, cacheUUID string) (*env, error) {
	p := labstor.NewPlatform(platformConfig)
	e := &env{p: p, dev: p.AddDevice("nvme0", labstor.NVMe, 1<<30), mount: mount}
	if _, err := p.MountSpec(spec); err != nil {
		p.Close()
		return nil, fmt.Errorf("mount %s: %w", mount, err)
	}
	if cacheUUID != "" {
		m, err := p.Runtime().Registry.Get(cacheUUID)
		if err != nil {
			p.Close()
			return nil, err
		}
		c, ok := m.(*lru.Cache)
		if !ok {
			p.Close()
			return nil, fmt.Errorf("vertex %s is %T, not an lru cache", cacheUUID, m)
		}
		e.cache = c
	}
	return e, nil
}

func (e *env) rt() *runtime.Runtime { return e.p.Runtime() }

// settle waits until every request the workers processed has been folded
// into the attribution table (workers publish on idle scans), so counter
// reads at phase boundaries are exact.
func (e *env) settle() {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		var processed, folded int64
		for _, ws := range e.rt().Stats() {
			processed += ws.Processed
		}
		for _, sa := range e.rt().Attribution() {
			folded += sa.Requests
		}
		if folded >= processed {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// snapshot is every counter a phase is measured by, read at its start and
// end. Process-wide counters (copy sites, pools, Go heap, CPU) cover
// whatever runs in the process, which is one platform at a time.
type snapshot struct {
	copies           map[string]int64
	pool             core.PoolStats
	arena            core.ArenaStats
	mallocs, allocB  uint64
	numGC            uint32
	gcCPU, allCPU    float64
	procCPU          float64
	polls, empty     int64
	parks            int64
	sqFull           int64
	wBatchN          int64
	wBatchSum        float64
	sBatchN          int64
	sBatchSum        float64
	sBytes, sBusy    int64
	attrReq          int64
	attrLatUS        float64
	attrWaitUS       float64
	attrSampled      int64
	stages           map[string]float64
	devR, devW       int64
	devBW, devBusyNS int64
	lruHits, lruMiss int64
}

// procCPUSeconds is the process's user+system CPU time.
func procCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnapshot(e *env) snapshot {
	e.settle()
	s := snapshot{copies: map[string]int64{}, stages: map[string]float64{}}
	for _, c := range telemetry.CopySiteStats() {
		s.copies[c.Site] = c.Count
	}
	s.pool = core.RequestPoolStats()
	s.arena = core.BufArenaStats()
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	s.mallocs, s.allocB, s.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	metrics.Read(cpuSamples)
	s.gcCPU, s.allCPU = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	s.procCPU = procCPUSeconds()

	rt := e.rt()
	for _, ws := range rt.Stats() {
		s.polls += ws.Polls
		s.empty += ws.EmptyPolls
		s.parks += ws.Parks
	}
	reg := rt.Metrics()
	s.sqFull = reg.Counter("client.sq_full_retries").Value()
	wb := reg.Histogram("worker.batch_size").State()
	s.wBatchN, s.wBatchSum = wb.Count, wb.Sum
	sb := reg.Histogram("serve.batch_size").State()
	s.sBatchN, s.sBatchSum = sb.Count, sb.Sum
	s.sBytes = reg.Counter("serve.bytes_in").Value() + reg.Counter("serve.bytes_out").Value()
	s.sBusy = reg.Counter("serve.busy").Value()
	for _, sa := range rt.Attribution() {
		if sa.Stack != e.mount {
			continue
		}
		s.attrReq, s.attrLatUS, s.attrSampled = sa.Requests, sa.TotalLatencyUS, sa.Sampled
		for _, o := range sa.Ops {
			s.attrWaitUS += o.QueueWaitUS
		}
		for _, st := range sa.Stages {
			s.stages[st.Stage] = st.TotalUS
		}
	}
	var busy vtime.Duration
	s.devR, s.devW, _, s.devBW, busy = e.dev.Stats()
	s.devBusyNS = int64(busy)
	if e.cache != nil {
		s.lruHits, s.lruMiss, _ = e.cache.Stats()
	}
	return s
}

// delta is the difference between two snapshots over ops benchmark ops.
type delta struct {
	a, b snapshot
	ops  float64
	// userBytes is the payload the benchmark asked to write in the phase.
	userBytes int64
	// windows/windowNS time the phase's pipelined windows (kv-net).
	windows, windowNS int64
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (d delta) copiesWithPrefix(prefix string) float64 {
	var n int64
	for site, c := range d.b.copies {
		if prefix == "" || strings.HasPrefix(site, prefix) {
			n += c - d.a.copies[site]
		}
	}
	return float64(n)
}

// stageVirtUS is the modeled time the named stages spent per benchmark op.
// Stage totals cover the runtime's 1-in-N sampled requests, so they are
// scaled by requests/sampled; the sample is deterministic for a seed.
func (d delta) stageVirtUS(names ...string) float64 {
	var sum float64
	for _, n := range names {
		sum += d.b.stages[n] - d.a.stages[n]
	}
	sampled := float64(d.b.attrSampled - d.a.attrSampled)
	reqs := float64(d.b.attrReq - d.a.attrReq)
	return ratio(sum*ratio(reqs, sampled), d.ops)
}

func (d delta) copiesPerOp() float64 { return ratio(d.copiesWithPrefix(""), d.ops) }
func (d delta) allocsPerOp() float64 { return ratio(float64(d.b.mallocs-d.a.mallocs), d.ops) }
func (d delta) cpuSeconds() float64  { return d.b.procCPU - d.a.procCPU }
func (d delta) attrVirtUSPerOp() float64 {
	return ratio(d.b.attrLatUS-d.a.attrLatUS, float64(d.b.attrReq-d.a.attrReq))
}

// Per-layer metric groups: each is read from the phase where its layer
// does the work (the workload itself, or the ladder rung that holds the
// layer when the workload bypasses it).
func (d delta) ipcMetrics(m metricSet) {
	m.add("ipc.sq_full_per_kop", "count/kop", ratio(1000*float64(d.b.sqFull-d.a.sqFull), d.ops))
}

func (d delta) runtimeMetrics(m metricSet) {
	m.add("runtime.parks_per_kop", "count/kop", ratio(1000*float64(d.b.parks-d.a.parks), d.ops))
	m.add("runtime.idle_poll_ratio", "ratio", ratio(float64(d.b.empty-d.a.empty), float64(d.b.polls-d.a.polls)))
	m.add("runtime.batch_mean", "count", ratio(d.b.wBatchSum-d.a.wBatchSum, float64(d.b.wBatchN-d.a.wBatchN)))
	m.add("runtime.queue_wait_virt_us", "virt_us", ratio(d.b.attrWaitUS-d.a.attrWaitUS, d.ops))
	m.add("core.reqpool_hit_ratio", "ratio", ratio(float64(d.b.pool.Hits-d.a.pool.Hits), float64(d.b.pool.Gets-d.a.pool.Gets)))
	m.add("core.bufarena_hit_ratio", "ratio", ratio(float64(d.b.arena.Hits-d.a.arena.Hits), float64(d.b.arena.Gets-d.a.arena.Gets)))
}

func (d delta) labkvsMetrics(m metricSet) {
	m.add("labkvs.copies_per_op", "copies/op", ratio(d.copiesWithPrefix("labkvs."), d.ops))
	m.add("labkvs.meta_virt_us", "virt_us", d.stageVirtUS("kv_meta", "generickvs"))
}

func (d delta) labfsMetrics(m metricSet) {
	m.add("labfs.copies_per_op", "copies/op", ratio(d.copiesWithPrefix("labfs."), d.ops))
	m.add("labfs.meta_virt_us", "virt_us", d.stageVirtUS("fs_meta"))
}

func (d delta) lruMetrics(m metricSet) {
	hits, miss := float64(d.b.lruHits-d.a.lruHits), float64(d.b.lruMiss-d.a.lruMiss)
	m.add("lru.hit_ratio", "ratio", ratio(hits, hits+miss))
	m.add("lru.copies_per_op", "copies/op", ratio(d.copiesWithPrefix("lru."), d.ops))
	m.add("lru.virt_us", "virt_us", d.stageVirtUS("cache"))
}

func (d delta) deviceMetrics(m metricSet) {
	m.add("device.reads_per_op", "count/op", ratio(float64(d.b.devR-d.a.devR), d.ops))
	m.add("device.writes_per_op", "count/op", ratio(float64(d.b.devW-d.a.devW), d.ops))
	m.add("device.write_amp", "ratio", ratio(float64(d.b.devBW-d.a.devBW), float64(d.userBytes)))
	m.add("device.busy_virt_us_per_op", "virt_us", ratio(float64(d.b.devBusyNS-d.a.devBusyNS)/1e3, d.ops))
	m.add("device.copies_per_op", "copies/op", ratio(d.copiesWithPrefix("device."), d.ops))
	m.add("driver.virt_us", "virt_us", d.stageVirtUS("driver", "sched"))
}

func (d delta) serveMetrics(m metricSet) {
	m.add("serve.frames_per_batch", "count", ratio(d.b.sBatchSum-d.a.sBatchSum, float64(d.b.sBatchN-d.a.sBatchN)))
	m.add("serve.bytes_per_op", "B/op", ratio(float64(d.b.sBytes-d.a.sBytes), d.ops))
	m.add("serve.busy_per_kop", "count/kop", ratio(1000*float64(d.b.sBusy-d.a.sBusy), d.ops))
}

func (d delta) goMetrics(m metricSet) {
	m.add("go.alloc_bytes_per_op", "B/op", ratio(float64(d.b.allocB-d.a.allocB), d.ops))
	m.add("go.gc_per_kop", "count/kop", ratio(1000*float64(d.b.numGC-d.a.numGC), d.ops))
	m.add("go.gc_cpu_frac", "ratio", ratio(d.b.gcCPU-d.a.gcCPU, d.b.allCPU-d.a.allCPU))
}

// metricSet is the result's metrics object.
type metricSet map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) add(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// heapLiveMiB returns the live heap after two forced collections: the
// second drops what sync.Pools kept through the first, whose contents
// depend on goroutine scheduling.
func heapLiveMiB() float64 {
	gort.GC()
	gort.GC()
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
