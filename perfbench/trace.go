package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kindVFS        spanKind = iota // one DUFS vfs op, recorded by the caller
	kindCoordRead                  // coord.Client read handed to core
	kindCoordWrite                 // coord.Client write handed to core
	kindBackend                    // back-end vfs.FileSystem call
	kindServer                     // client-facing handler on a coord server
	kindPeer                       // peer (zab) handler on a coord server
	kindSync                       // zab.Storage Sync
	numKinds
)

var kindNames = [numKinds]string{"vfs", "coord.read", "coord.write", "backend", "server", "peer", "storage.sync"}

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch; parent is the index of the enclosing vfs span, or -1.
type span struct {
	start, end int64
	parent     int32
	kind       spanKind
	write      bool // vfs spans: the op is a write
}

// tracer keeps spans in a fixed, preallocated arena and counts traffic
// at the same seams. Recording is gated by on, so the probes can stay
// installed through an untraced phase at the cost of one atomic load.
type tracer struct {
	on       atomic.Bool
	epoch    time.Time
	capacity int
	mem      []byte // the mapping behind spans
	spans    []span
	next     atomic.Int64
	dropped  atomic.Int64
	inflight atomic.Int64 // spans begun while on and not yet recorded

	// open maps a caller goroutine to the slot holding the index of
	// its open vfs span: coord and back-end calls run on the caller's
	// goroutine, and no request ID crosses the coord.Client boundary.
	open sync.Map // getg() → *atomic.Int32

	clientMsgs, clientBytes atomic.Int64
	peerMsgs, peerBytes     atomic.Int64
	appendBytes, snapshots  atomic.Int64
	mkdirs                  atomic.Int64
	shardCalls              []atomic.Int64
}

func newTracer(capacity, shards int) *tracer {
	return &tracer{epoch: time.Now(), capacity: capacity, shardCalls: make([]atomic.Int64, shards)}
}

// start maps the span arena and turns recording on. The arena lies
// outside the Go heap: on it, its size would raise the collector's
// heap goal, cut the number of collections and make the traced phase
// look faster than the untraced one.
func (t *tracer) start() error {
	size := t.capacity * int(unsafe.Sizeof(span{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("mapping the span arena: %w", err)
	}
	t.mem = mem
	t.spans = unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), t.capacity)
	t.on.Store(true)
	return nil
}

// release unmaps the arena; call it after stop, once the spans are no
// longer read.
func (t *tracer) release() {
	if t.mem != nil {
		syscall.Munmap(t.mem)
		t.mem, t.spans = nil, nil
	}
}

// stop turns recording off and waits until every span begun while it
// was on has been recorded, so digest and writeSpans read a still
// arena. Server goroutines keep handling heartbeats after the load
// stops, so a handler may still be inside a span.
func (t *tracer) stop() {
	t.on.Store(false)
	for t.inflight.Load() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
}

// begin starts a span when recording is on; only then (ok) must the
// caller finish it with end.
func (t *tracer) begin() (start int64, ok bool) {
	t.inflight.Add(1)
	if !t.on.Load() {
		t.inflight.Add(-1)
		return 0, false
	}
	return t.now(), true
}

// end records the span begun at start.
func (t *tracer) end(k spanKind, start int64, parent int32) {
	t.record(k, start, t.now(), parent)
	t.inflight.Add(-1)
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// alloc reserves a span slot, or returns -1 when the arena is full.
func (t *tracer) alloc() int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	return int32(i)
}

// record stores a finished span.
func (t *tracer) record(k spanKind, start, end int64, parent int32) {
	if i := t.alloc(); i >= 0 {
		t.spans[i] = span{start: start, end: end, parent: parent, kind: k}
	}
}

// register binds the calling goroutine to a fresh open-span slot; the
// caller passes the slot to beginOp/endOp. A goroutine that later
// reuses the key of an exited one finds its slot at -1, as endOp leaves
// it, until it registers its own.
func (t *tracer) register() *atomic.Int32 {
	slot := new(atomic.Int32)
	slot.Store(-1)
	t.open.Store(getg(), slot)
	return slot
}

// beginOp opens a vfs span for the slot's goroutine.
func (t *tracer) beginOp(slot *atomic.Int32, write bool) int32 {
	start, ok := t.begin()
	if !ok {
		return -1
	}
	i := t.alloc()
	if i < 0 {
		t.inflight.Add(-1)
		return -1
	}
	t.spans[i] = span{start: start, parent: -1, kind: kindVFS, write: write}
	slot.Store(i)
	return i
}

// endOp closes the span beginOp returned.
func (t *tracer) endOp(slot *atomic.Int32, i int32) {
	if i >= 0 {
		t.spans[i].end = t.now()
		t.inflight.Add(-1)
	}
	slot.Store(-1)
}

// parent returns the calling goroutine's open vfs span, or -1.
func (t *tracer) parent() int32 {
	if v, ok := t.open.Load(getg()); ok {
		return v.(*atomic.Int32).Load()
	}
	return -1
}

// layerStats is the per-layer digest of the recorded spans.
type layerStats struct {
	ops, writeOps int64
	count         [numKinds]int64
	durs          [numKinds][]int64
	selfNS        int64 // vfs duration not covered by a child span
}

// digest aggregates the spans; call it after stop.
func (t *tracer) digest() layerStats {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	spans := t.spans[:n]
	var st layerStats
	children := make(map[int32][][2]int64)
	for i := range spans {
		s := &spans[i]
		if s.end < s.start {
			continue // a vfs span still open when recording stopped
		}
		st.count[s.kind]++
		st.durs[s.kind] = append(st.durs[s.kind], s.end-s.start)
		if s.kind == kindVFS {
			st.ops++
			if s.write {
				st.writeOps++
			}
		}
		if s.parent >= 0 && (s.kind == kindCoordRead || s.kind == kindCoordWrite || s.kind == kindBackend) {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.kind != kindVFS || s.end < s.start {
			continue
		}
		st.selfNS += (s.end - s.start) - covered(s.start, s.end, children[int32(i)])
	}
	return st
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeSpans dumps the arena to path: a text header line, then one
// 24-byte little-endian record per span — start ns, end ns (int64),
// parent index (int32), kind (uint8, named in the header), write flag
// (uint8) and two zero bytes.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n := min(t.next.Load(), int64(len(t.spans)))
	fmt.Fprintf(w, "perfbench spans v1 records=%d dropped=%d kinds=%v\n", n, t.dropped.Load(), kindNames)
	var rec [24]byte
	for _, s := range t.spans[:n] {
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
		binary.LittleEndian.PutUint32(rec[16:], uint32(s.parent))
		rec[20] = byte(s.kind)
		rec[21] = 0
		if s.write {
			rec[21] = 1
		}
		w.Write(rec[:])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
