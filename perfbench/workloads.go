package main

import (
	"errors"
	"fmt"
	"time"

	"labstor"
	"labstor/internal/core"
	"labstor/internal/mods/labfs"
	"labstor/internal/runtime"
	"labstor/internal/serve"
)

// recorder collects what a trial or rung observes: per-op wall latency by
// kind (only while timing), and every attempted op with its outcome. An op
// fails on an error, a BUSY frame or a payload that does not match the
// model.
type recorder struct {
	timing    bool
	lat       [3][]int64
	attempted int64
	failed    int64
	firstErr  error
	tr        *tracer
	// windows/windowNS time whole pipelined windows (kv-net, serve rung).
	windows  int64
	windowNS int64
}

// done records the outcome of an op issued at t0 that has just ended.
func (r *recorder) done(k kind, t0 time.Time, err error) { r.doneAt(k, t0, time.Now(), err) }

// doneAt records the outcome of an op that ran from t0 to end; ops whose
// result is checked after the clock stops pass end explicitly.
func (r *recorder) doneAt(k kind, t0, end time.Time, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	if r.timing {
		r.lat[k] = append(r.lat[k], int64(end.Sub(t0)))
	}
}

func mismatch(what string, obj int32) error {
	return fmt.Errorf("%s %d: payload does not match the last version written", what, obj)
}

// runner is one booted, preloaded workload instance.
type runner interface {
	env() *env
	// exec issues ops in order, checking each result against the model.
	exec(ops []op, r *recorder)
	// verify checks the whole dataset against the model.
	verify(r *recorder)
	// clockNS is the client's modeled clock; ok is false when the client
	// has none (served requests), and virtual time comes from the runtime's
	// attribution table instead.
	clockNS() (ns int64, ok bool)
	// userBytes is the payload written by the benchmark so far.
	userBytes() int64
	close()
}

var kvKeyNames = func() []string {
	ks := make([]string, kvKeys)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%05d", i)
	}
	return ks
}()

// kvSpec is the LabKVS stack: generickvs → labkvs → [lru 64 MiB,
// writethrough] → noop → kernel_driver on NVMe, executed asynchronously by
// the runtime.
func kvSpec(mount, prefix string, cache bool) string {
	s := fmt.Sprintf(`mount: %s
rules:
  exec_mode: async
mods:
  - uuid: %[2]s/genkvs
    type: labstor.generickvs
  - uuid: %[2]s/kvs
    type: labstor.labkvs
    attrs:
      device: nvme0
      log_mb: 8
`, mount, prefix)
	if cache {
		s += fmt.Sprintf(`  - uuid: %s/cache
    type: labstor.lru
    attrs:
      capacity_mb: 64
      policy: writethrough
`, prefix)
	}
	return s + fmt.Sprintf(`  - uuid: %[1]s/sched
    type: labstor.noop
    attrs:
      device: nvme0
  - uuid: %[1]s/drv
    type: labstor.kernel_driver
    attrs:
      device: nvme0
`, prefix)
}

func cacheUUID(prefix string, cache bool) string {
	if !cache {
		return ""
	}
	return prefix + "/cache"
}

// kvModel is the last version written of every key (preload writes 1).
type kvModel struct {
	ver     []uint64
	written int64
}

func newKVModel() kvModel { return kvModel{ver: make([]uint64, kvKeys)} }

// --- kv-hot: runtime.Client, depth 1 ------------------------------------------

type kvLocal struct {
	e       *env
	cli     *runtime.Client
	stack   *core.Stack
	payload core.BufHandle
	m       kvModel
}

func openKVLocal(mount, prefix string, cache bool) (*kvLocal, error) {
	e, err := bootEnv(kvSpec(mount, prefix, cache), mount, cacheUUID(prefix, cache))
	if err != nil {
		return nil, err
	}
	w := &kvLocal{e: e, m: newKVModel()}
	w.cli = e.p.Connect().Client()
	st, _, ok := w.cli.Resolve(mount)
	if !ok {
		e.p.Close()
		return nil, fmt.Errorf("no stack at %s", mount)
	}
	w.stack = st
	if w.payload, err = w.cli.AcquireBuffer(blockSize); err != nil {
		e.p.Close()
		return nil, err
	}
	pre := &recorder{}
	for k := int32(0); k < kvKeys; k++ {
		w.put(k, pre)
	}
	if pre.failed > 0 {
		w.close()
		return nil, fmt.Errorf("preload: %w", pre.firstErr)
	}
	return w, nil
}

func openKVHot() (runner, error) { return openKVLocal("kv::/hot", "hot", true) }

func (w *kvLocal) env() *env              { return w.e }
func (w *kvLocal) clockNS() (int64, bool) { return int64(w.cli.Clock()), true }
func (w *kvLocal) userBytes() int64       { return w.m.written }
func (w *kvLocal) close()                 { w.payload.Release(); w.e.p.Close() }
func (w *kvLocal) exec(ops []op, r *recorder) {
	for _, o := range ops {
		switch o.kind {
		case kRead:
			w.get(o.obj, r)
		case kWrite:
			w.put(o.obj, r)
		default:
			w.has(o.obj, r)
		}
	}
}

// submit runs one request at depth 1 and returns when it was issued.
func (w *kvLocal) submit(req *core.Request, name string, r *recorder) (time.Time, error) {
	id := r.tr.req()
	root := r.tr.begin(name, -1, id)
	call := r.tr.begin("runtime.Client.SubmitStack", root, id)
	t0 := time.Now()
	err := w.cli.SubmitStack(w.stack, req)
	r.tr.end(call)
	r.tr.end(root)
	return t0, err
}

func (w *kvLocal) put(k int32, r *recorder) {
	ver := w.m.ver[k] + 1
	stamp(w.payload.Bytes(), uint64(k), ver)
	req := core.AcquireRequest(core.OpPut)
	req.Key = kvKeyNames[k]
	req.SetPayload(w.payload)
	req.Size = blockSize
	t0, err := w.submit(req, "kv.put", r)
	req.Release()
	if err == nil {
		w.m.ver[k] = ver
		w.m.written += blockSize
	}
	r.done(kWrite, t0, err)
}

func (w *kvLocal) get(k int32, r *recorder) {
	req := core.AcquireRequest(core.OpGet)
	req.Key = kvKeyNames[k]
	t0, err := w.submit(req, "kv.get", r)
	end := time.Now()
	if err == nil && !stamped(req.Value, uint64(k), w.m.ver[k]) {
		err = mismatch("get key", k)
	}
	req.Release()
	r.doneAt(kRead, t0, end, err)
}

func (w *kvLocal) has(k int32, r *recorder) {
	req := core.AcquireRequest(core.OpHas)
	req.Key = kvKeyNames[k]
	t0, err := w.submit(req, "kv.has", r)
	end := time.Now()
	if err == nil && req.Result != 1 {
		err = fmt.Errorf("has key %d: reported absent", k)
	}
	req.Release()
	r.doneAt(kMeta, t0, end, err)
}

func (w *kvLocal) verify(r *recorder) { verifyKV(w, r) }

// verifyKV probes every key with has, then reads it back against the
// model.
func verifyKV(w runner, r *recorder) {
	ops := make([]op, 0, 2*kvKeys)
	for k := int32(0); k < kvKeys; k++ {
		ops = append(ops, op{kind: kMeta, obj: k}, op{kind: kRead, obj: k})
	}
	w.exec(ops, r)
}

// merge adds o's outcomes to r.
func (r *recorder) merge(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// --- kv-net: serve.Conn, windows of 16 pipelined frames -----------------------

// netWindow is the number of frames pipelined per flush.
const netWindow = 16

type kvNet struct {
	e     *env
	srv   *serve.Server
	conn  *serve.Conn
	mount string
	m     kvModel
	rfs   [netWindow]serve.ReqFrame
	bufs  [netWindow][]byte
	want  [netWindow]uint64
	t0    [netWindow]time.Time
	chans [netWindow]<-chan serve.Result
}

// startServe serves e's runtime on a loopback port and dials it with the
// default tenant policy (admitted, never throttled).
func startServe(e *env) (*serve.Server, *serve.Conn, error) {
	srv := serve.New(e.rt(), serve.Config{Addr: "127.0.0.1:0"})
	addr, err := srv.ListenAndServe()
	if err != nil {
		return nil, nil, err
	}
	conn, err := serve.Dial(addr.String(), "bench")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, conn, nil
}

func openKVNet() (runner, error) {
	const mount = "kv::/net"
	e, err := bootEnv(kvSpec(mount, "net", true), mount, "net/cache")
	if err != nil {
		return nil, err
	}
	srv, conn, err := startServe(e)
	if err != nil {
		e.p.Close()
		return nil, err
	}
	w := &kvNet{e: e, srv: srv, conn: conn, mount: mount, m: newKVModel()}
	for i := range w.bufs {
		w.bufs[i] = make([]byte, blockSize)
	}
	pre := make([]op, kvKeys)
	for k := range pre {
		pre[k] = op{kind: kWrite, obj: int32(k)}
	}
	rec := &recorder{}
	w.exec(pre, rec)
	if rec.failed > 0 {
		w.close()
		return nil, fmt.Errorf("preload: %w", rec.firstErr)
	}
	return w, nil
}

func (w *kvNet) env() *env              { return w.e }
func (w *kvNet) clockNS() (int64, bool) { return 0, false }
func (w *kvNet) userBytes() int64       { return w.m.written }

func (w *kvNet) close() {
	w.conn.Close()
	w.srv.Close()
	w.e.p.Close()
}

func (w *kvNet) exec(ops []op, r *recorder) {
	for len(ops) > 0 {
		n := min(netWindow, len(ops))
		w.window(ops[:n], r)
		ops = ops[n:]
	}
}

// window pipelines up to netWindow ops and times each from its submission
// to its result. The model advances at submission: a connection's frames
// execute in order, so a get sees every put submitted before it.
func (w *kvNet) window(ops []op, r *recorder) {
	id := r.tr.req()
	root := r.tr.begin("serve.window", -1, id)
	wt0 := time.Now()
	var subErr [netWindow]error
	for j, o := range ops {
		rf := &w.rfs[j]
		*rf = serve.ReqFrame{Mount: w.mount, Key: kvKeyNames[o.obj]}
		switch o.kind {
		case kRead:
			rf.Op = core.OpGet
			w.want[j] = w.m.ver[o.obj]
		case kWrite:
			w.m.ver[o.obj]++
			stamp(w.bufs[j], uint64(o.obj), w.m.ver[o.obj])
			w.m.written += blockSize
			rf.Op, rf.Payload = core.OpPut, w.bufs[j]
		default:
			rf.Op = core.OpHas
		}
		s := r.tr.begin("serve.Conn.Submit", root, id)
		w.t0[j] = time.Now()
		w.chans[j], subErr[j] = w.conn.Submit(rf)
		r.tr.end(s)
	}
	s := r.tr.begin("serve.Conn.Flush", root, id)
	flushErr := w.conn.Flush()
	r.tr.end(s)
	for j, o := range ops {
		var res serve.Result
		err := subErr[j]
		if err == nil {
			err = flushErr
		}
		if err == nil {
			var ok bool
			if res, ok = <-w.chans[j]; !ok {
				err = serve.ErrConnClosed
			}
		}
		end := time.Now()
		if err == nil {
			err = res.Err()
		}
		switch {
		case err != nil:
		case o.kind == kMeta && res.Resp.Result != 1:
			err = fmt.Errorf("has key %d: reported absent", o.obj)
		case o.kind == kRead && !stamped(res.Resp.Value, uint64(o.obj), w.want[j]):
			err = mismatch("get key", o.obj)
		}
		r.doneAt(o.kind, w.t0[j], end, err)
	}
	r.windows++
	r.windowNS += int64(time.Since(wt0))
	r.tr.end(root)
}

func (w *kvNet) verify(r *recorder) { verifyKV(w, r) }

// --- fs-cold: the labstor facade ---------------------------------------------

// fsLogMB sizes LabFS's metadata log (its smallest setting) so it
// checkpoints during the timed phase of every trial, several times per
// run: the preload's extent records nearly fill it, and a checkpoint
// rewrites one extent record per data block.
const fsLogMB = 1

// fsSpec is the LabFS stack: genericfs → labfs → [lru 8 MiB] → noop →
// kernel_driver on NVMe, executed asynchronously by the runtime.
func fsSpec(mount, prefix string, cache bool) string {
	s := fmt.Sprintf(`mount: %s
rules:
  exec_mode: async
mods:
  - uuid: %[2]s/genfs
    type: labstor.genericfs
  - uuid: %[2]s/fs
    type: labstor.labfs
    attrs:
      device: nvme0
      log_mb: %[3]d
`, mount, prefix, fsLogMB)
	if cache {
		s += fmt.Sprintf(`  - uuid: %s/cache
    type: labstor.lru
    attrs:
      capacity_mb: 8
      policy: writethrough
`, prefix)
	}
	return s + fmt.Sprintf(`  - uuid: %[1]s/sched
    type: labstor.noop
    attrs:
      device: nvme0
  - uuid: %[1]s/drv
    type: labstor.kernel_driver
    attrs:
      device: nvme0
`, prefix)
}

type fsLocal struct {
	e          *env
	sess       *labstor.Session
	files      [fsFiles]*labstor.File
	rbuf, wbuf []byte
	ver        []uint64
	slotVer    [fsSlots]uint64
	slotLive   [fsSlots]bool
	overwrites int
	written    int64
	slotPaths  [fsSlots]string
}

// slotObj is the payload object id of a small file, disjoint from blocks.
func slotObj(slot int32) uint64 { return 1<<32 | uint64(slot) }

func openFSLocal(mount, prefix string, cache bool) (*fsLocal, error) {
	e, err := bootEnv(fsSpec(mount, prefix, cache), mount, cacheUUID(prefix, cache))
	if err != nil {
		return nil, err
	}
	w := &fsLocal{e: e, sess: e.p.Connect(),
		rbuf: make([]byte, blockSize), wbuf: make([]byte, blockSize), ver: make([]uint64, fsBlocks)}
	for s := range w.slotPaths {
		w.slotPaths[s] = fmt.Sprintf("%s/s%02d", mount, s)
	}
	pre := &recorder{}
	for f := range w.files {
		if w.files[f], err = w.sess.Create(fmt.Sprintf("%s/f%02d", mount, f)); err != nil {
			w.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		for b := 0; b < fileBlocks; b++ {
			w.write(int32(f*fileBlocks+b), pre)
		}
	}
	if pre.failed > 0 {
		w.close()
		return nil, fmt.Errorf("preload: %w", pre.firstErr)
	}
	return w, nil
}

func openFSCold() (runner, error) { return openFSLocal("fs::/cold", "cold", true) }

func (w *fsLocal) env() *env              { return w.e }
func (w *fsLocal) clockNS() (int64, bool) { return int64(w.sess.Clock()), true }
func (w *fsLocal) userBytes() int64       { return w.written }
func (w *fsLocal) close()                 { w.e.p.Close() }
func (w *fsLocal) exec(ops []op, r *recorder) {
	for _, o := range ops {
		switch o.kind {
		case kRead:
			w.read(o.obj, r)
		case kWrite:
			w.write(o.obj, r)
		default:
			w.meta(o, r)
		}
	}
}

func (w *fsLocal) read(obj int32, r *recorder) {
	f, off := int(obj)/fileBlocks, int64(obj%fileBlocks)*blockSize
	id := r.tr.req()
	root := r.tr.begin("fs.read", -1, id)
	call := r.tr.begin("labstor.File.ReadAt", root, id)
	t0 := time.Now()
	n, err := w.files[f].ReadAt(w.rbuf, off)
	end := time.Now()
	r.tr.end(call)
	r.tr.end(root)
	if err == nil && (n != blockSize || !stamped(w.rbuf, uint64(obj), w.ver[obj])) {
		err = mismatch("read block", obj)
	}
	r.doneAt(kRead, t0, end, err)
}

// write overwrites one block with its next version; every fsSyncEvery-th
// overwrite also syncs the file, inside the timed op.
func (w *fsLocal) write(obj int32, r *recorder) {
	f, off := int(obj)/fileBlocks, int64(obj%fileBlocks)*blockSize
	ver := w.ver[obj] + 1
	stamp(w.wbuf, uint64(obj), ver)
	id := r.tr.req()
	root := r.tr.begin("fs.write", -1, id)
	call := r.tr.begin("labstor.File.WriteAt", root, id)
	t0 := time.Now()
	n, err := w.files[f].WriteAt(w.wbuf, off)
	r.tr.end(call)
	if err == nil && n != blockSize {
		err = fmt.Errorf("write block %d: short write %d", obj, n)
	}
	if err == nil {
		w.ver[obj] = ver
		w.written += blockSize
		if w.overwrites++; w.overwrites%fsSyncEvery == 0 {
			call = r.tr.begin("labstor.File.Sync", root, id)
			err = w.files[f].Sync()
			r.tr.end(call)
		}
	}
	r.tr.end(root)
	r.done(kWrite, t0, err)
}

// meta runs one metadata op on a small-file slot. A live slot is stat'ed
// (size checked) or unlinked; an empty slot is usually created and
// written, else stat'ed to check that the unlink took (not found).
func (w *fsLocal) meta(o op, r *recorder) {
	slot, path := o.obj, w.slotPaths[o.obj]
	id := r.tr.req()
	root := r.tr.begin("fs.meta", -1, id)
	t0 := time.Now()
	var err error
	switch {
	case w.slotLive[slot] && o.roll%2 == 0:
		err = w.statLive(path, root, id, r)
	case w.slotLive[slot]:
		call := r.tr.begin("labstor.Session.Remove", root, id)
		err = w.sess.Remove(path)
		r.tr.end(call)
		if err == nil {
			w.slotLive[slot] = false
		}
	case o.roll%4 != 0:
		ver := w.slotVer[slot] + 1
		stamp(w.wbuf, slotObj(slot), ver)
		err = w.create(path, root, id, r)
		if err == nil {
			w.slotVer[slot], w.slotLive[slot] = ver, true
			w.written += blockSize
		}
	default:
		call := r.tr.begin("labstor.Session.Stat", root, id)
		_, err = w.sess.Stat(path)
		r.tr.end(call)
		if errors.Is(err, labfs.ErrNotFound) {
			err = nil
		} else if err == nil {
			err = fmt.Errorf("stat %s: unlinked file still exists", path)
		}
	}
	r.tr.end(root)
	r.done(kMeta, t0, err)
}

func (w *fsLocal) statLive(path string, root int32, id uint32, r *recorder) error {
	call := r.tr.begin("labstor.Session.Stat", root, id)
	size, err := w.sess.Stat(path)
	r.tr.end(call)
	if err == nil && size != blockSize {
		err = fmt.Errorf("stat %s: size %d, want %d", path, size, blockSize)
	}
	return err
}

// create creates path and writes wbuf into it (create + write + close).
func (w *fsLocal) create(path string, root int32, id uint32, r *recorder) error {
	call := r.tr.begin("labstor.Session.Create", root, id)
	f, err := w.sess.Create(path)
	r.tr.end(call)
	if err != nil {
		return err
	}
	call = r.tr.begin("labstor.File.WriteAt", root, id)
	_, err = f.WriteAt(w.wbuf, 0)
	r.tr.end(call)
	call = r.tr.begin("labstor.File.Close", root, id)
	cerr := f.Close()
	r.tr.end(call)
	if err == nil {
		err = cerr
	}
	return err
}

// verify reads back every block of the large files and every small-file
// slot: live slots by size and content, empty ones as not found.
func (w *fsLocal) verify(r *recorder) {
	for obj := int32(0); obj < fsBlocks; obj++ {
		w.read(obj, r)
	}
	for slot := int32(0); slot < fsSlots; slot++ {
		path := w.slotPaths[slot]
		t0 := time.Now()
		var err error
		if !w.slotLive[slot] {
			if _, err = w.sess.Stat(path); errors.Is(err, labfs.ErrNotFound) {
				err = nil
			} else if err == nil {
				err = fmt.Errorf("stat %s: unlinked file still exists", path)
			}
		} else if err = w.statLive(path, -1, r.tr.req(), r); err == nil {
			err = w.readSlot(path, slot)
		}
		r.doneAt(kMeta, t0, t0, err)
	}
}

func (w *fsLocal) readSlot(path string, slot int32) error {
	f, err := w.sess.Open(path)
	if err != nil {
		return err
	}
	n, err := f.ReadAt(w.rbuf, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && (n != blockSize || !stamped(w.rbuf, slotObj(slot), w.slotVer[slot])) {
		err = mismatch("read small file", slot)
	}
	return err
}
