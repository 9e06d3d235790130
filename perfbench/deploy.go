package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"radiomis/internal/cluster"
	"radiomis/internal/logx"
	"radiomis/internal/server"
	"radiomis/internal/store"
	"radiomis/internal/telemetry"
	"radiomis/internal/trace"
)

// deployment is a running in-process radiomisd: one daemon, or a
// coordinator daemon with two worker daemons, each on its own loopback
// httptest server.
type deployment struct {
	url     string   // the daemon clients talk to
	workers []string // worker daemon URLs (cluster only)
	walDir  string   // WAL directory (wal workloads only)

	front   *httptest.Server
	mgr     *server.Manager
	coord   *cluster.Coordinator
	backs   []*httptest.Server
	backMgr []*server.Manager
}

// deploy starts the daemon(s) a workload runs against. A non-nil tracer
// turns on the daemons' own spans, recorded into the benchmark's tracer so
// they join the benchmark's request traces.
func deploy(w *workload, dataDir string, tr *trace.Tracer) (*deployment, error) {
	d := &deployment{}
	reg := telemetry.New()
	opts := server.Options{Tracer: tr, Registry: reg}
	if w.wal {
		dir, err := os.MkdirTemp(dataDir, "wal-")
		if err != nil {
			return nil, fmt.Errorf("wal dir: %w", err)
		}
		d.walDir = dir
		st, err := store.Open(dir, store.Options{Metrics: reg})
		if err != nil {
			return nil, fmt.Errorf("open wal: %w", err)
		}
		opts.Store = st
	}
	if w.cluster {
		for i := 0; i < 2; i++ {
			m := server.New(server.Options{Tracer: tr})
			ts := httptest.NewServer(server.NewHandler(m))
			d.backMgr = append(d.backMgr, m)
			d.backs = append(d.backs, ts)
			d.workers = append(d.workers, ts.URL)
		}
		// The coordinator gets no tracer: its workers already record into
		// the shared tracer, so stitching would only import duplicates.
		coord, err := cluster.New(cluster.Options{Workers: d.workers, Registry: reg, Logger: logx.Discard()})
		if err != nil {
			d.close()
			return nil, err
		}
		d.coord = coord
		opts.Executor = coord.Executor()
	}
	d.mgr = server.New(opts)
	d.front = httptest.NewServer(server.NewHandler(d.mgr))
	d.url = d.front.URL
	return d, nil
}

// close stops every server and manager, front first. The WAL stays on
// disk for reopenWAL.
func (d *deployment) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.front != nil {
		d.front.Close()
	}
	if d.mgr != nil {
		d.mgr.Shutdown(ctx) // every client request has completed; nothing to abort
	}
	if d.coord != nil {
		d.coord.Close()
	}
	for i, ts := range d.backs {
		ts.Close()
		d.backMgr[i].Shutdown(ctx)
	}
}

// reopenWAL replays the deployment's WAL with store.Open, as a restarted
// daemon would, after the daemon has shut down and closed it.
func reopenWAL(dir string) (time.Duration, int, error) {
	start := time.Now()
	st, err := store.Open(filepath.Clean(dir), store.Options{})
	if err != nil {
		return 0, 0, err
	}
	took := time.Since(start)
	jobs := len(st.Jobs())
	return took, jobs, st.Close()
}
