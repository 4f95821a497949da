package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mom"
	"repro/internal/serverd"
	"repro/internal/tm"
)

// Both live workloads run a pbs-server and four moms of eight cores in
// this process, talking over loopback sockets.
const (
	liveMoms     = 4
	liveMomCores = 8
	// waitLimit bounds every wait on the live stack; an operation that
	// takes longer counts as failed instead of hanging the run.
	waitLimit = 10 * time.Second
)

// liveCluster is a running server with its moms.
type liveCluster struct {
	srv  *serverd.Server
	moms []*mom.Mom
}

// bootCluster starts a server (embedded scheduler when sched is
// non-nil) and the moms, and waits until every mom has registered.
func bootCluster(sched *core.Scheduler) (*liveCluster, error) {
	srv := serverd.New(serverd.Options{Sched: sched, PollInterval: time.Second})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	lc := &liveCluster{srv: srv}
	for i := 0; i < liveMoms; i++ {
		m := mom.New(fmt.Sprintf("n%d", i), liveMomCores)
		if err := m.Start("127.0.0.1:0", srv.Addr()); err != nil {
			lc.close()
			return nil, fmt.Errorf("start mom: %w", err)
		}
		lc.moms = append(lc.moms, m)
	}
	end := time.Now().Add(waitLimit)
	for len(srv.QStat().Nodes) < liveMoms {
		if time.Now().After(end) {
			lc.close()
			return nil, fmt.Errorf("only %d of %d moms registered", len(srv.QStat().Nodes), liveMoms)
		}
		time.Sleep(time.Millisecond)
	}
	return lc, nil
}

// close stops the moms (which cancels their applications) and then the
// server, waiting for all of their goroutines.
func (lc *liveCluster) close() {
	for _, m := range lc.moms {
		m.Close()
	}
	lc.srv.Close()
}

// startLog records application start callbacks by job id.
type startLog struct {
	mu     sync.Mutex
	at     map[int]time.Time // guarded by mu; first start
	count  map[int]int       // guarded by mu
	notify chan int          // optional; receives each start's job id
}

func newStartLog(notify chan int) *startLog {
	return &startLog{at: map[int]time.Time{}, count: map[int]int{}, notify: notify}
}

func (l *startLog) started(id int) {
	now := time.Now()
	l.mu.Lock()
	if l.count[id] == 0 {
		l.at[id] = now
	}
	l.count[id]++
	l.mu.Unlock()
	if l.notify != nil {
		select {
		case l.notify <- id:
		default:
		}
	}
}

// get returns the first start time of id and how often it started.
func (l *startLog) get(id int) (time.Time, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.at[id], l.count[id]
}

var appSeq atomic.Int64

// registerApp registers fn under a fresh name and returns the job
// script that runs it. Names are never reused, because the mom's
// application registry is process-wide and rejects duplicates.
func registerApp(kind string, fn mom.GoApp) string {
	name := fmt.Sprintf("perfbench-%s-%d", kind, appSeq.Add(1))
	mom.RegisterGoApp(name, fn)
	return "go:" + name
}

// holdApp starts, reports the start, and runs until its job is killed.
func holdApp(l *startLog) mom.GoApp {
	return func(ctx context.Context, tmc *tm.Context) error {
		l.started(tmc.JobID)
		<-ctx.Done()
		return nil
	}
}
