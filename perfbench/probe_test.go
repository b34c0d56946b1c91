package main

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/coord/storage"
	"repro/internal/coord/zab"
	"repro/internal/transport"
)

func startTracer(t *testing.T, tr *tracer) {
	t.Helper()
	if err := tr.start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tr.stop()
		tr.release()
	})
}

// pipelinedConn is a Conn that pipelines natively, like the TCP one.
type pipelinedConn struct{}

func (pipelinedConn) Call(req []byte) ([]byte, error) { return append([]byte("re:"), req...), nil }
func (pipelinedConn) Close() error                    { return nil }
func (c pipelinedConn) CallAsync(req []byte) <-chan transport.CallResult {
	ch := make(chan transport.CallResult, 1)
	resp, err := c.Call(req)
	ch <- transport.CallResult{Payload: resp, Err: err}
	return ch
}

func TestConnProbeKeepsAsyncCallerExactly(t *testing.T) {
	tr := newTracer(16, 1)
	if _, ok := wrapConn(pipelinedConn{}, tr, false).(transport.AsyncCaller); !ok {
		t.Fatal("probe of a pipelining conn lost transport.AsyncCaller")
	}

	net := transport.NewInProc()
	ln, err := net.Listen("a", transport.HandlerFunc(func(req []byte) ([]byte, error) { return req, nil }))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	plain, err := net.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.(transport.AsyncCaller); ok {
		t.Fatal("in-proc conn unexpectedly pipelines; the test needs a conn that does not")
	}
	if _, ok := wrapConn(plain, tr, false).(transport.AsyncCaller); ok {
		t.Fatal("probe of a non-pipelining conn claims transport.AsyncCaller")
	}
}

func TestConnProbeCountsBothDirections(t *testing.T) {
	tr := newTracer(16, 1)
	startTracer(t, tr)
	c := wrapConn(pipelinedConn{}, tr, true)
	if _, err := c.Call([]byte("ab")); err != nil {
		t.Fatal(err)
	}
	res := <-c.(transport.AsyncCaller).CallAsync([]byte("cd"))
	if string(res.Payload) != "re:cd" {
		t.Fatalf("async payload %q, want re:cd", res.Payload)
	}
	if got := tr.peerMsgs.Load(); got != 2 {
		t.Fatalf("peer msgs %d, want 2", got)
	}
	if got := tr.peerBytes.Load(); got != 2+5+2+5 {
		t.Fatalf("peer bytes %d, want 14", got)
	}
	if tr.clientMsgs.Load() != 0 {
		t.Fatal("peer traffic counted as client traffic")
	}
}

// blobStorage is a zab.Storage without the streaming extension.
type blobStorage struct{ zab.Storage }

func TestStorageProbeKeepsStreamStorageExactly(t *testing.T) {
	eng, err := storage.Open(storage.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tr := newTracer(16, 1)
	wrapped := wrapStorage(eng, tr)
	ss, ok := wrapped.(zab.StreamStorage)
	if !ok {
		t.Fatal("probe of a streaming engine lost zab.StreamStorage")
	}
	if _, ok := wrapStorage(blobStorage{eng}, tr).(zab.StreamStorage); ok {
		t.Fatal("probe of a blob-only store claims zab.StreamStorage")
	}

	// Streaming calls reach the engine and are counted.
	startTracer(t, tr)
	body := bytes.Repeat([]byte("snap"), 1000)
	if err := ss.SaveSnapshotFrom(bytes.NewReader(body), 7); err != nil {
		t.Fatal(err)
	}
	rc, zxid, ok := ss.SnapshotStream()
	if !ok || zxid != 7 {
		t.Fatalf("SnapshotStream: ok=%v zxid=%d, want a snapshot at 7", ok, zxid)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("snapshot read back %d bytes (err %v), want the %d saved", len(got), err, len(body))
	}
	if tr.snapshots.Load() != 1 {
		t.Fatalf("snapshots %d, want 1", tr.snapshots.Load())
	}
	if err := wrapped.Append([]zab.Frame{{Zxid: 8, Txns: [][]byte{[]byte("xyz")}}}); err != nil {
		t.Fatal(err)
	}
	if err := wrapped.Sync(); err != nil {
		t.Fatal(err)
	}
	if tr.appendBytes.Load() != 3 {
		t.Fatalf("append bytes %d, want 3", tr.appendBytes.Load())
	}
	tr.stop()
	if st := tr.digest(); st.count[kindSync] != 1 {
		t.Fatalf("sync spans %d, want 1", st.count[kindSync])
	}
}

func TestSpansParentToTheCallersOp(t *testing.T) {
	tr := newTracer(64, 1)
	startTracer(t, tr)
	sp := newOpSpan(tr)
	op := sp.begin(true)
	if p := tr.parent(); p != op {
		t.Fatalf("parent on the caller's goroutine %d, want %d", p, op)
	}
	other := make(chan int32)
	go func() { other <- tr.parent() }()
	if p := <-other; p != -1 {
		t.Fatalf("parent on another goroutine %d, want -1", p)
	}
	sp.end(op)
	if p := tr.parent(); p != -1 {
		t.Fatalf("parent after the op ended %d, want -1", p)
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	ivs := [][2]int64{{50, 70}, {10, 30}, {20, 40}, {90, 120}}
	if got := covered(0, 100, ivs); got != 30+20+10 {
		t.Fatalf("covered %d, want 60", got)
	}
}

// TestWorkloadsPassTheirChecks runs every workload briefly on a traced
// deployment, so the probes sit under the checks.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("boots durable ensembles")
	}
	for _, name := range []string{"churn", "lookup-2shard"} {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer(1<<16, w.shards())
			d, _, err := setup(w, "test-"+name, t.TempDir(), 2, tr)
			if err != nil {
				t.Fatal(err)
			}
			defer d.stop()
			startTracer(t, tr)
			s := w.run(d, 300*time.Millisecond, tr)
			tr.stop()
			if s.attempted == 0 || s.failed != 0 || s.wrong != 0 {
				t.Fatalf("attempted %d failed %d wrong %d: %s", s.attempted, s.failed, s.wrong, s.firstBad)
			}
			if err := w.check(d); err != nil {
				t.Fatal(err)
			}
			st := tr.digest()
			if st.ops == 0 || st.count[kindCoordRead]+st.count[kindCoordWrite] == 0 || st.count[kindServer] == 0 {
				t.Fatalf("traced run recorded ops=%d coord=%d server=%d", st.ops,
					st.count[kindCoordRead]+st.count[kindCoordWrite], st.count[kindServer])
			}
		})
	}
}
