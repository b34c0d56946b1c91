package main

import (
	"context"
	"io"
	"strings"

	"repro/internal/coord"
	"repro/internal/coord/zab"
	"repro/internal/coord/znode"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// The probes wrap each layer's public seam and record into a tracer
// while it is on; off, they only delegate. Each preserves the optional
// interfaces the layer above type-asserts.

// ---- coord.Client ---------------------------------------------------

// clientProbe wraps a coord.Client. With shard < 0 it is the seam
// handed to core.New and records coord spans, parented to the calling
// goroutine's vfs span; with shard >= 0 it sits between a shard.Router
// and that shard's session and counts the calls the router routes
// there. Methods core never calls are inherited unwrapped.
type clientProbe struct {
	coord.Client
	t     *tracer
	shard int
}

func nop() {}

// span starts timing one call; the returned func ends it.
func (c *clientProbe) span(k spanKind) func() {
	if c.shard >= 0 {
		if c.t.on.Load() {
			c.t.shardCalls[c.shard].Add(1)
		}
		return nop
	}
	return parentedSpan(c.t, k)
}

// parentedSpan starts a span parented to the calling goroutine's vfs
// op; the returned func ends it.
func parentedSpan(t *tracer, k spanKind) func() {
	start, ok := t.begin()
	if !ok {
		return nop
	}
	parent := t.parent()
	return func() { t.end(k, start, parent) }
}

// future ends a span when an asynchronous submission resolves.
func (c *clientProbe) future(k spanKind, f *coord.Future) *coord.Future {
	if c.shard >= 0 {
		c.span(k)()
		return f
	}
	start, ok := c.t.begin()
	if !ok {
		return f
	}
	parent := c.t.parent()
	go func() {
		<-f.Done()
		c.t.end(k, start, parent)
	}()
	return f
}

func (c *clientProbe) CreateCtx(ctx context.Context, path string, data []byte, mode znode.CreateMode) (string, error) {
	defer c.span(kindCoordWrite)()
	return c.Client.CreateCtx(ctx, path, data, mode)
}

func (c *clientProbe) Create(path string, data []byte, mode znode.CreateMode) (string, error) {
	defer c.span(kindCoordWrite)()
	return c.Client.Create(path, data, mode)
}

func (c *clientProbe) GetCtx(ctx context.Context, path string) ([]byte, znode.Stat, error) {
	defer c.span(kindCoordRead)()
	return c.Client.GetCtx(ctx, path)
}

func (c *clientProbe) Get(path string) ([]byte, znode.Stat, error) {
	defer c.span(kindCoordRead)()
	return c.Client.Get(path)
}

func (c *clientProbe) SetCtx(ctx context.Context, path string, data []byte, version int32) (znode.Stat, error) {
	defer c.span(kindCoordWrite)()
	return c.Client.SetCtx(ctx, path, data, version)
}

func (c *clientProbe) Set(path string, data []byte, version int32) (znode.Stat, error) {
	defer c.span(kindCoordWrite)()
	return c.Client.Set(path, data, version)
}

func (c *clientProbe) DeleteCtx(ctx context.Context, path string, version int32) error {
	defer c.span(kindCoordWrite)()
	return c.Client.DeleteCtx(ctx, path, version)
}

func (c *clientProbe) Delete(path string, version int32) error {
	defer c.span(kindCoordWrite)()
	return c.Client.Delete(path, version)
}

func (c *clientProbe) ExistsCtx(ctx context.Context, path string) (znode.Stat, bool, error) {
	defer c.span(kindCoordRead)()
	return c.Client.ExistsCtx(ctx, path)
}

func (c *clientProbe) Exists(path string) (znode.Stat, bool, error) {
	defer c.span(kindCoordRead)()
	return c.Client.Exists(path)
}

func (c *clientProbe) ChildrenCtx(ctx context.Context, path string) ([]string, error) {
	defer c.span(kindCoordRead)()
	return c.Client.ChildrenCtx(ctx, path)
}

func (c *clientProbe) Children(path string) ([]string, error) {
	defer c.span(kindCoordRead)()
	return c.Client.Children(path)
}

func (c *clientProbe) MultiCtx(ctx context.Context, ops []coord.Op) ([]coord.OpResult, error) {
	defer c.span(kindCoordWrite)()
	return c.Client.MultiCtx(ctx, ops)
}

func (c *clientProbe) Multi(ops []coord.Op) ([]coord.OpResult, error) {
	defer c.span(kindCoordWrite)()
	return c.Client.Multi(ops)
}

func (c *clientProbe) ChildrenDataCtx(ctx context.Context, path string) ([]coord.ChildEntry, error) {
	defer c.span(kindCoordRead)()
	return c.Client.ChildrenDataCtx(ctx, path)
}

func (c *clientProbe) ChildrenData(path string) ([]coord.ChildEntry, error) {
	defer c.span(kindCoordRead)()
	return c.Client.ChildrenData(path)
}

func (c *clientProbe) Begin(ctx context.Context, op coord.Op) *coord.Future {
	return c.future(kindCoordWrite, c.Client.Begin(ctx, op))
}

func (c *clientProbe) BeginMulti(ctx context.Context, ops []coord.Op) *coord.Future {
	return c.future(kindCoordWrite, c.Client.BeginMulti(ctx, ops))
}

func (c *clientProbe) BeginChildrenData(ctx context.Context, path string) *coord.Future {
	return c.future(kindCoordRead, c.Client.BeginChildrenData(ctx, path))
}

// ---- back-end vfs.FileSystem ------------------------------------------

// fsProbe wraps a back-end mount.
type fsProbe struct {
	inner vfs.FileSystem
	t     *tracer
}

func (f *fsProbe) span() func() { return parentedSpan(f.t, kindBackend) }

func (f *fsProbe) Mkdir(path string, perm uint32) error {
	if f.t.on.Load() {
		f.t.mkdirs.Add(1)
	}
	defer f.span()()
	return f.inner.Mkdir(path, perm)
}

func (f *fsProbe) Rmdir(path string) error {
	defer f.span()()
	return f.inner.Rmdir(path)
}

func (f *fsProbe) Create(path string, perm uint32) (vfs.Handle, error) {
	defer f.span()()
	return f.inner.Create(path, perm)
}

func (f *fsProbe) Open(path string, flags int) (vfs.Handle, error) {
	defer f.span()()
	return f.inner.Open(path, flags)
}

func (f *fsProbe) Unlink(path string) error {
	defer f.span()()
	return f.inner.Unlink(path)
}

func (f *fsProbe) Stat(path string) (vfs.FileInfo, error) {
	defer f.span()()
	return f.inner.Stat(path)
}

func (f *fsProbe) Readdir(path string) ([]vfs.DirEntry, error) {
	defer f.span()()
	return f.inner.Readdir(path)
}

func (f *fsProbe) Rename(oldPath, newPath string) error {
	defer f.span()()
	return f.inner.Rename(oldPath, newPath)
}

func (f *fsProbe) Symlink(target, linkPath string) error {
	defer f.span()()
	return f.inner.Symlink(target, linkPath)
}

func (f *fsProbe) Readlink(path string) (string, error) {
	defer f.span()()
	return f.inner.Readlink(path)
}

func (f *fsProbe) Truncate(path string, size int64) error {
	defer f.span()()
	return f.inner.Truncate(path, size)
}

func (f *fsProbe) Chmod(path string, perm uint32) error {
	defer f.span()()
	return f.inner.Chmod(path, perm)
}

func (f *fsProbe) Access(path string, mask uint32) error {
	defer f.span()()
	return f.inner.Access(path, mask)
}

// ---- transport.Network ------------------------------------------------

// netProbe wraps the transport. Addresses containing "-peer-" carry
// zab traffic between voters; every other address is a client port.
type netProbe struct {
	inner transport.Network
	t     *tracer
}

func isPeerAddr(addr string) bool { return strings.Contains(addr, "-peer-") }

// Listen times the server side of every request.
func (n *netProbe) Listen(addr string, h transport.Handler) (io.Closer, error) {
	k := kindServer
	if isPeerAddr(addr) {
		k = kindPeer
	}
	t := n.t
	return n.inner.Listen(addr, transport.HandlerFunc(func(req []byte) ([]byte, error) {
		start, ok := t.begin()
		if !ok {
			return h.Handle(req)
		}
		resp, err := h.Handle(req)
		t.end(k, start, -1)
		return resp, err
	}))
}

// Dial counts the messages and bytes of the client side.
func (n *netProbe) Dial(addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return wrapConn(c, n.t, isPeerAddr(addr)), nil
}

// wrapConn returns a counting Conn that implements
// transport.AsyncCaller exactly when c does: coord.Session type-asserts
// it to decide whether an abandoned request may still be referenced.
func wrapConn(c transport.Conn, t *tracer, peer bool) transport.Conn {
	p := &connProbe{Conn: c, t: t, peer: peer}
	if ac, ok := c.(transport.AsyncCaller); ok {
		return &asyncConnProbe{connProbe: p, async: ac}
	}
	return p
}

type connProbe struct {
	transport.Conn
	t    *tracer
	peer bool
}

func (c *connProbe) count(bytes int) {
	if c.peer {
		c.t.peerMsgs.Add(1)
		c.t.peerBytes.Add(int64(bytes))
	} else {
		c.t.clientMsgs.Add(1)
		c.t.clientBytes.Add(int64(bytes))
	}
}

func (c *connProbe) Call(req []byte) ([]byte, error) {
	resp, err := c.Conn.Call(req)
	if c.t.on.Load() {
		c.count(len(req) + len(resp))
	}
	return resp, err
}

type asyncConnProbe struct {
	*connProbe
	async transport.AsyncCaller
}

// CallAsync counts the request now and the response when it arrives.
func (c *asyncConnProbe) CallAsync(req []byte) <-chan transport.CallResult {
	ch := c.async.CallAsync(req)
	if !c.t.on.Load() {
		return ch
	}
	c.count(len(req))
	out := make(chan transport.CallResult, 1)
	go func() {
		res := <-ch
		if c.peer {
			c.t.peerBytes.Add(int64(len(res.Payload)))
		} else {
			c.t.clientBytes.Add(int64(len(res.Payload)))
		}
		out <- res
	}()
	return out
}

// ---- zab.Storage ------------------------------------------------------

// wrapStorage returns a probe that implements zab.StreamStorage exactly
// when s does: the replication node type-asserts it to stream
// snapshots, and a wrapper that hid it would silently change how
// snapshots are taken and restored.
func wrapStorage(s zab.Storage, t *tracer) zab.Storage {
	p := &storageProbe{Storage: s, t: t}
	if ss, ok := s.(zab.StreamStorage); ok {
		return &streamStorageProbe{storageProbe: p, stream: ss}
	}
	return p
}

type storageProbe struct {
	zab.Storage
	t *tracer
}

func (s *storageProbe) Append(frames []zab.Frame) error {
	if s.t.on.Load() {
		var n int64
		for _, f := range frames {
			for _, txn := range f.Txns {
				n += int64(len(txn))
			}
		}
		s.t.appendBytes.Add(n)
	}
	return s.Storage.Append(frames)
}

func (s *storageProbe) Sync() error {
	start, ok := s.t.begin()
	if !ok {
		return s.Storage.Sync()
	}
	err := s.Storage.Sync()
	s.t.end(kindSync, start, -1)
	return err
}

func (s *storageProbe) SaveSnapshot(data []byte, zxid uint64) error {
	if s.t.on.Load() {
		s.t.snapshots.Add(1)
	}
	return s.Storage.SaveSnapshot(data, zxid)
}

type streamStorageProbe struct {
	*storageProbe
	stream zab.StreamStorage
}

func (s *streamStorageProbe) SaveSnapshotFrom(r io.Reader, zxid uint64) error {
	if s.t.on.Load() {
		s.t.snapshots.Add(1)
	}
	return s.stream.SaveSnapshotFrom(r, zxid)
}

func (s *streamStorageProbe) InstallSnapshotFrom(r io.Reader, zxid uint64) error {
	return s.stream.InstallSnapshotFrom(r, zxid)
}

func (s *streamStorageProbe) SnapshotStream() (io.ReadCloser, uint64, bool) {
	return s.stream.SnapshotStream()
}
