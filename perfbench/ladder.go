package main

import (
	"fmt"
	"time"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/serve"
	"labstor/internal/vtime"
)

// The layer ladder replays the seeded stream with the stack cut at each
// boundary, the benchmark driving the lowest remaining layer directly.
// Each rung reports wall ns per op; the step between adjacent rungs is the
// added layer's wall cost:
//
//	ipc            bare ipc.QueuePair submit→poll→complete→reap
//	runtime        runtime.Client.SubmitStack on a labstor.dummy stack
//	runtime.batch  SubmitBatch+WaitAll of 16 on the dummy stack, per op
//	device         device.Device.Submit on the stream's block ops
//	kv.nolru/kv    the KV stack without/with its lru
//	fs.nolru/fs    the FS stack without/with its lru
//	serve          serve.Conn windows of 16 over the dummy stack, per op
//
// So labkvs.op_ns = kv.nolru - runtime - device, labfs.op_ns = fs.nolru -
// runtime - device (the fs rungs go through the labstor facade, so this
// step includes the facade's per-call cost), lru.op_ns = kv - kv.nolru
// (negative when hits save more than the cache costs) and serve.op_ns =
// serve - runtime.batch. The device and fs rungs replay the fs stream's
// reads and overwrites only.
const (
	rungIPCOps   = 1 << 18
	rungIPCChunk = 64
	rungOps      = 40000
)

type ladder struct {
	ns map[string]float64
	// Counter deltas of the rungs that stand in for a layer the workload
	// itself bypasses (labkvs on fs-cold, labfs on the KV workloads, serve
	// on the local workloads).
	kv, fs, serve delta
	serveWindowUS float64
	// out holds every rung op's outcome.
	out recorder
}

// meanNS is the mean recorded latency over every kind.
func meanNS(r *recorder) float64 {
	var sum, n int64
	for _, l := range r.lat {
		for _, v := range l {
			sum += v
		}
		n += int64(len(l))
	}
	return ratio(float64(sum), float64(n))
}

func runLadder(seed int64, tr *tracer) (*ladder, error) {
	l := &ladder{ns: map[string]float64{}}
	rung := func(name string) *recorder {
		if tr != nil {
			tr.track = "rung " + name
		}
		return &recorder{timing: true, tr: tr}
	}

	r := rung("ipc")
	if err := rungIPC(r); err != nil {
		return nil, err
	}
	l.ns["ipc"] = meanNS(r) / rungIPCChunk
	l.out.merge(r)

	if err := rungDummy(l, rung); err != nil {
		return nil, err
	}

	r = rung("device")
	rungDevice(seed, r)
	l.ns["device"] = meanNS(r)
	l.out.merge(r)

	// The stack rungs; the cached ones stand in for labkvs and labfs on
	// the workloads that bypass them.
	kvOps, fsOps := kvStream(seed, rungOps), rungFSOps(seed)
	for _, sr := range []struct {
		name  string
		ops   []op
		open  func() (runner, error)
		delta *delta
	}{
		{"kv.nolru", kvOps, func() (runner, error) { return openKVLocal("kv::/ladder", "ladkv", false) }, nil},
		{"kv", kvOps, func() (runner, error) { return openKVLocal("kv::/ladder", "ladkv", true) }, &l.kv},
		{"fs.nolru", fsOps, func() (runner, error) { return openFSLocal("fs::/ladder", "ladfs", false) }, nil},
		{"fs", fsOps, func() (runner, error) { return openFSLocal("fs::/ladder", "ladfs", true) }, &l.fs},
	} {
		w, err := sr.open()
		if err != nil {
			return nil, fmt.Errorf("rung %s: %w", sr.name, err)
		}
		r := rung(sr.name)
		ub := w.userBytes()
		d := measure(w.env(), len(sr.ops), func() { w.exec(sr.ops, r) })
		d.userBytes = w.userBytes() - ub
		w.close()
		l.ns[sr.name] = meanNS(r)
		l.out.merge(r)
		if sr.delta != nil {
			*sr.delta = d
		}
	}
	return l, nil
}

// rungFSOps is the first rungOps reads and overwrites of the fs stream.
func rungFSOps(seed int64) []op {
	var out []op
	for _, o := range fsStream(seed, 2*rungOps) {
		if o.kind != kMeta && len(out) < rungOps {
			out = append(out, o)
		}
	}
	return out
}

// measure snapshots e's counters around fn, which runs ops benchmark ops.
func measure(e *env, ops int, fn func()) delta {
	a := takeSnapshot(e)
	fn()
	return delta{a: a, b: takeSnapshot(e), ops: float64(ops)}
}

func rungIPC(r *recorder) error {
	qp := ipc.NewQueuePair[*core.Request](1, ipc.Primary, true, 1024)
	req := core.NewRequest(core.OpMessage)
	for i := 0; i < rungIPCOps/rungIPCChunk; i++ {
		id := r.tr.req()
		s := r.tr.begin("ipc.QueuePair x64", -1, id)
		t0 := time.Now()
		var err error
		for j := 0; j < rungIPCChunk && err == nil; j++ {
			if err = qp.Submit(req); err != nil {
				break
			}
			var v *core.Request
			if v, err = qp.PollSQ(); err != nil {
				break
			}
			if err = qp.Complete(v); err != nil {
				break
			}
			_, err = qp.PollCQ()
		}
		r.tr.end(s)
		r.done(kRead, t0, err)
		if err != nil {
			return fmt.Errorf("rung ipc: %w", err)
		}
	}
	return nil
}

const dummySpec = `mount: msg::/ladder
rules:
  exec_mode: async
mods:
  - uuid: ladder/dum
    type: labstor.dummy
`

// rungDummy runs the runtime rungs (depth 1 and batches of 16) and the
// serve rung over one dummy-stack platform.
func rungDummy(l *ladder, rung func(string) *recorder) error {
	e, err := bootEnv(dummySpec, "msg::/ladder", "")
	if err != nil {
		return err
	}
	defer e.p.Close()
	cli := e.p.Connect().Client()
	stack, _, _ := cli.Resolve("msg::/ladder")

	r := rung("runtime")
	for i := 0; i < rungOps; i++ {
		id := r.tr.req()
		s := r.tr.begin("runtime.Client.SubmitStack", -1, id)
		req := core.AcquireRequest(core.OpMessage)
		t0 := time.Now()
		err := cli.SubmitStack(stack, req)
		end := time.Now()
		req.Release()
		r.tr.end(s)
		r.doneAt(kRead, t0, end, err)
	}
	l.ns["runtime"] = meanNS(r)
	l.out.merge(r)

	r = rung("runtime.batch")
	var reqs [netWindow]*core.Request
	for i := 0; i < rungOps/netWindow; i++ {
		id := r.tr.req()
		s := r.tr.begin("runtime.Client.SubmitBatch+WaitAll", -1, id)
		for j := range reqs {
			reqs[j] = core.AcquireRequest(core.OpMessage)
		}
		t0 := time.Now()
		err := cli.SubmitBatch(stack, reqs[:])
		if err == nil {
			err = cli.WaitAll(reqs[:])
		}
		end := time.Now()
		for _, req := range reqs {
			req.Release()
		}
		r.tr.end(s)
		r.doneAt(kRead, t0, end, err)
	}
	l.ns["runtime.batch"] = meanNS(r) / netWindow
	l.out.merge(r)

	srv, conn, err := startServe(e)
	if err != nil {
		return err
	}
	defer srv.Close()
	defer conn.Close()
	r = rung("serve")
	var rfs [netWindow]serve.ReqFrame
	l.serve = measure(e, rungOps, func() {
		for i := 0; i < rungOps/netWindow; i++ {
			id := r.tr.req()
			s := r.tr.begin("serve.Conn.Pipeline", -1, id)
			for j := range rfs {
				rfs[j] = serve.ReqFrame{Op: core.OpMessage, Mount: "msg::/ladder"}
			}
			t0 := time.Now()
			res, err := conn.Pipeline(rfs[:])
			end := time.Now()
			for k := 0; err == nil && k < len(res); k++ {
				err = res[k].Err()
			}
			r.tr.end(s)
			r.doneAt(kRead, t0, end, err)
		}
	})
	l.ns["serve"] = meanNS(r) / netWindow
	l.serveWindowUS = meanNS(r) / 1e3
	l.out.merge(r)
	return nil
}

// rungDevice drives the device model directly: the stream's block reads
// and overwrites, closed loop in virtual time, over a preloaded region.
func rungDevice(seed int64, r *recorder) {
	dev := device.New("nvme0", device.NVMe, 1<<30)
	buf := make([]byte, blockSize)
	for b := int64(0); b < fsBlocks; b++ {
		_, _ = dev.WriteAt(buf, b*blockSize)
	}
	var at vtime.Time
	for _, o := range rungFSOps(seed) {
		dop := device.Read
		if o.kind == kWrite {
			dop = device.Write
		}
		id := r.tr.req()
		s := r.tr.begin("device.Device.Submit", -1, id)
		t0 := time.Now()
		_, end, err := dev.Submit(dop, int64(o.obj)*blockSize, buf, at)
		r.done(kRead, t0, err)
		r.tr.end(s)
		at = end
	}
}
