package main

// Per-layer microbenchmarks through each layer's public functions:
//
//	go -C bench test -run '^$' -bench . -benchmem
//
// Each reports <layer>.<op>_ns and <layer>.<op>_allocs per operation.

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/proto/wire"
	"repro/internal/sched"
	"repro/internal/sim"

	ethmod "repro/internal/proto/eth"
)

// measure times b.N calls of op (run by loop) and reports them under
// name.
func measure(b *testing.B, name string, loop func(n int)) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	loop(b.N)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), name+"_ns")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), name+"_allocs")
}

func BenchmarkSimAfterDrain(b *testing.B) {
	eng := sim.New()
	fn := func() {}
	measure(b, "sim.after_drain", func(n int) {
		for i := 0; i < n; i++ {
			eng.After(10, fn)
			eng.Drain(eng.Now() + 10)
		}
	})
}

func BenchmarkNetsimSwitchSend(b *testing.B) {
	eng := sim.New()
	sw := netsim.NewSwitch(eng, 100_000_000, 3000)
	src, dst := netsim.NewNIC("a", 1), netsim.NewNIC("b", 2)
	sw.Attach(src)
	sw.Attach(dst)
	received := 0
	dst.Rx = func(netsim.Frame) { received++ }
	src.Rx = func(netsim.Frame) {}
	// Teach the switch both stations so frames are forwarded, not flooded.
	dst.Send(netsim.Frame{Dst: 1, Src: 2, Data: make([]byte, 60)})
	eng.Drain(eng.Now() + sim.CyclesPerMillisecond)
	f := netsim.Frame{Dst: 2, Src: 1, Data: make([]byte, 60)}
	measure(b, "netsim.switch_send", func(n int) {
		for i := 0; i < n; i++ {
			src.Send(f)
			eng.Drain(eng.Now() + sim.CyclesPerMillisecond)
		}
	})
	if received != b.N {
		b.Fatalf("delivered %d of %d frames", received, b.N)
	}
}

func BenchmarkMsgLifecycle(b *testing.B) {
	owner := &core.Owner{Name: "bench"}
	payload := make([]byte, 512)
	measure(b, "msg.new_push_pop_free", func(n int) {
		for i := 0; i < n; i++ {
			m := msg.New(owner, msg.DefaultHeadroom, len(payload))
			m.Append(payload)
			m.Push(wire.TCPLen)
			m.Pop(wire.TCPLen)
			m.Free()
		}
	})
}

func BenchmarkWireTCP(b *testing.B) {
	payload := make([]byte, 512)
	seg := make([]byte, wire.TCPLen+len(payload))
	copy(seg[wire.TCPLen:], payload)
	h := wire.TCP{SrcPort: 1025, DstPort: 80, Seq: 1, Ack: 2, Flags: wire.FlagACK, Window: 8192}
	src, dst := lib.IPv4(10, 0, 1, 1), lib.IPv4(10, 0, 0, 1)
	measure(b, "proto.wire.put_parse_tcp", func(n int) {
		for i := 0; i < n; i++ {
			wire.PutTCP(seg, h, src, dst, payload)
			if _, _, err := wire.ParseTCP(seg, src, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type entity struct{ st *sched.State }

func (e entity) SchedState() *sched.State { return e.st }

func BenchmarkSchedStride(b *testing.B) {
	s := sched.NewStride()
	// Eight runnable threads, the depth a busy server keeps queued.
	for i := 0; i < 8; i++ {
		s.Enqueue(entity{sched.NewState(&sched.Share{Tickets: uint64(i + 1)})})
	}
	measure(b, "sched.stride_enqueue_dequeue", func(n int) {
		for i := 0; i < n; i++ {
			e := s.Dequeue()
			s.Charged(e, 1000)
			s.Enqueue(e)
		}
	})
}

var sinkQueue *lib.Queue
var sinkHash *lib.Hash

// The per-path structures path.Manager.create builds: an inbound queue
// of 128 and the 8-entry allowed-crossings hash.
func BenchmarkLibQueueHash(b *testing.B) {
	measure(b, "lib.new_queue_hash", func(n int) {
		for i := 0; i < n; i++ {
			sinkQueue = lib.NewQueue(128)
			sinkHash = lib.NewHash(8)
		}
	})
}

// Path create and destroy run inside a kernel thread of a real
// Accounting server, as the TCP module's passive path does.
func BenchmarkPathCreateDestroy(b *testing.B) {
	tb, err := experiment.NewTestbed(experiment.ConfigAccounting, experiment.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	srv := tb.Escort
	attrs := lib.Attrs{ethmod.AttrRaw: true}
	measure(b, "path.create_destroy", func(n int) {
		done := false
		srv.K.Spawn(srv.K.KernelOwner(), "bench", func(ctx *kernel.Ctx) {
			for i := 0; i < n; i++ {
				p, err := srv.Paths.Create(ctx, "bench path", "arp", attrs)
				if err != nil {
					b.Error(err)
					break
				}
				srv.Paths.Destroy(ctx, p)
			}
			done = true
		}, kernel.SpawnOpts{})
		for !done {
			srv.Run(sim.CyclesPerSecond)
		}
	})
}
