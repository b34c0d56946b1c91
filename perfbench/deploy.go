package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/backend/memfs"
	"repro/internal/coord"
	"repro/internal/coord/shard"
	"repro/internal/coord/zab"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// Deployment constants, shared by every workload and recorded with
// every result.
const (
	voters        = 3    // members per coordination ensemble
	syncEvery     = 1    // fsync before every acknowledgement
	maxLogEntries = 8192 // log entries between truncation snapshots
	numBackends   = 2    // memfs mounts DUFS unions
	maxMounts     = 2    // DUFS mounts, each on its own session
)

// deployment is one DUFS stack composed from the public constructors:
// coord ensembles on an in-process network, memfs back-ends and DUFS
// mounts. With a tracer, every layer seam is wrapped in a probe.
type deployment struct {
	ensembles []*coord.Ensemble
	memfs     []*memfs.FS
	mounts    []*core.DUFS
	clients   []coord.Client
}

// boot starts shards ensembles of three durable voters under dataDir
// and mounts DUFS mounts times. name keeps transport addresses unique
// within the process.
func boot(name, dataDir string, shards, mounts int, t *tracer) (*deployment, error) {
	var net transport.Network = transport.NewInProc()
	if t != nil {
		net = &netProbe{inner: net, t: t}
	}
	d := &deployment{}
	for s := 0; s < shards; s++ {
		s := s
		cfg := coord.EnsembleConfig{
			Servers: voters,
			Net:     net,
			AddrFor: func(id uint64, kind string) string {
				return fmt.Sprintf("%s-s%d-%s-%d", name, s, kind, id)
			},
			MaxLogEntries: maxLogEntries,
			DataDir:       filepath.Join(dataDir, fmt.Sprintf("shard%d", s)),
			SyncEvery:     syncEvery,
		}
		if t != nil {
			cfg.WrapStorage = func(_ uint64, st zab.Storage) zab.Storage { return wrapStorage(st, t) }
		}
		ens, err := coord.StartEnsemble(cfg)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("ensemble %d: %w", s, err)
		}
		d.ensembles = append(d.ensembles, ens)
	}
	backends := make([]vfs.FileSystem, numBackends)
	for b := range backends {
		fs := memfs.New()
		d.memfs = append(d.memfs, fs)
		backends[b] = fs
		if t != nil {
			backends[b] = &fsProbe{inner: fs, t: t}
		}
	}
	for m := 0; m < mounts; m++ {
		client, err := d.connect(m, t)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("mount %d: %w", m, err)
		}
		d.clients = append(d.clients, client)
		if t != nil {
			client = &clientProbe{Client: client, t: t, shard: -1}
		}
		fs, err := core.New(core.Config{Session: client, Backends: backends})
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("mount %d: %w", m, err)
		}
		d.mounts = append(d.mounts, fs)
	}
	return d, nil
}

// connect opens mount m's coordination handle: a session on a single
// shard, a shard.Router over one session per shard otherwise. Mount m
// prefers server m, so mounts spread over the voters.
func (d *deployment) connect(m int, t *tracer) (coord.Client, error) {
	if len(d.ensembles) == 1 {
		return d.ensembles[0].Connect(m)
	}
	sessions := make([]coord.Client, 0, len(d.ensembles))
	for s, ens := range d.ensembles {
		sess, err := ens.Connect(m)
		if err != nil {
			for _, open := range sessions {
				open.Close()
			}
			return nil, err
		}
		var c coord.Client = sess
		if t != nil {
			c = &clientProbe{Client: sess, t: t, shard: s}
		}
		sessions = append(sessions, c)
	}
	return shard.New(sessions)
}

// leaders returns each shard's current leader ID (0 while electing).
func (d *deployment) leaders() []uint64 {
	out := make([]uint64, len(d.ensembles))
	for i, ens := range d.ensembles {
		if l := ens.Leader(); l != nil {
			out[i] = l.ID()
		}
	}
	return out
}

func (d *deployment) stop() {
	for _, c := range d.clients {
		c.Close()
	}
	for _, ens := range d.ensembles {
		ens.Stop()
	}
}
