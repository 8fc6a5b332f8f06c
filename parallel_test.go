package dcluster

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"dcluster/internal/sinr"
)

// Pass-level parallel reception at the Run layer: worker sessions come from
// the network's pool, and whatever goes wrong inside a worker surfaces as
// the run's typed error.

// workerHook wraps a network's engine so that every session after the
// first — the sessions Run lends to pass workers, when the pool starts
// empty — passes through wrap.
type workerHook struct {
	sinr.Engine
	sessions int
	wrap     func(sinr.Engine) sinr.Engine
}

func (h *workerHook) Session() sinr.Engine {
	h.sessions++
	s := h.Engine.Session()
	if h.sessions > 1 {
		s = h.wrap(s)
	}
	return s
}

// cancelOnDeliver cancels the run's context from inside a worker's Deliver.
type cancelOnDeliver struct {
	sinr.Engine
	cancel  context.CancelFunc
	armed   *atomic.Bool
	deliver *atomic.Int64
}

func (c *cancelOnDeliver) Deliver(txs, listeners []int, dst []sinr.Reception) []sinr.Reception {
	c.deliver.Add(1)
	if c.armed.Load() {
		c.cancel()
	}
	return c.Engine.Deliver(txs, listeners, dst)
}

func (c *cancelOnDeliver) SetStopCheck(fn func() error) {
	c.Engine.(sinr.StopChecker).SetStopCheck(fn)
}

type panicOnDeliver struct{ sinr.Engine }

func (panicOnDeliver) Deliver([]int, []int, []sinr.Reception) []sinr.Reception { panic("boom") }

func (p panicOnDeliver) SetStopCheck(fn func() error) {
	p.Engine.(sinr.StopChecker).SetStopCheck(fn)
}

// fanOutNet is a dense 120-node disk whose clustering has passes large
// enough to fan out.
func fanOutNet(t *testing.T) *Network {
	t.Helper()
	net, err := NewNetwork(UniformDisk(120, 3.5, 5), WithEngine(EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func setProcs(t *testing.T, p int) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestRunCancelInFannedOutPass(t *testing.T) {
	setProcs(t, 2)
	want, err := fanOutNet(t).Run(context.Background(), Clustering())
	if err != nil {
		t.Fatal(err)
	}

	net := fanOutNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var armed atomic.Bool
	var delivers atomic.Int64
	armed.Store(true)
	net.field = &workerHook{Engine: net.field, wrap: func(s sinr.Engine) sinr.Engine {
		return &cancelOnDeliver{Engine: s, cancel: cancel, armed: &armed, deliver: &delivers}
	}}
	res, err := net.Run(ctx, Clustering())
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if res == nil || delivers.Load() == 0 {
		t.Fatalf("no worker Deliver ran before the cancel (result %v)", res)
	}

	// The sessions the canceled run used went back to the pool; the next run
	// on them matches a fresh network byte for byte.
	armed.Store(false)
	before := delivers.Load()
	got, err := net.Run(context.Background(), Clustering())
	if err != nil {
		t.Fatal(err)
	}
	if delivers.Load() == before {
		t.Error("the rerun did not use the pooled worker session")
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) || !reflect.DeepEqual(got.Marks, want.Marks) ||
		!reflect.DeepEqual(got.Cluster, want.Cluster) {
		t.Error("rerun on pooled sessions after a cancel differs from a fresh run")
	}
}

func TestRunWorkerPanicIsInternal(t *testing.T) {
	setProcs(t, 2)
	net := fanOutNet(t)
	net.field = &workerHook{Engine: net.field, wrap: func(s sinr.Engine) sinr.Engine { return panicOnDeliver{s} }}
	res, err := net.Run(context.Background(), Clustering())
	if !errors.Is(err, ErrInternal) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want ErrInternal carrying the worker's panic", err)
	}
	if res == nil {
		t.Error("ErrInternal must come with the partial result")
	}
}
