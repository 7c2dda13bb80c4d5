package benchmark

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ftmrmpi/internal/core"
	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/mpi"
	"ftmrmpi/internal/storage"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/trace/critpath"
	"ftmrmpi/internal/vtime"
)

// Layer probes: tight loops over one layer's exported functions, independent
// of the workloads. Each reports the best of three trials, because a probe
// answers "how fast can this layer go", and on a shared host only the
// minimum is free of interference.

// prober scales the probes (1/div of full size under -smoke) and collects
// their results.
type prober struct {
	div int
	out map[string]float64
}

// n scales an iteration count.
func (p *prober) n(full int) int { return max(full/p.div, 4) }

// w scales a world size.
func (p *prober) w(full int) int {
	if p.div > 1 {
		return min(full, 16)
	}
	return full
}

// best3 runs trial three times and keeps the shortest time.
func best3(trial func() time.Duration) time.Duration {
	best := trial()
	for i := 0; i < 2; i++ {
		if d := trial(); d < best {
			best = d
		}
	}
	return best
}

// perOp stores the best time per operation, in the unit given by its
// length in nanoseconds (1 for ns, 1000 for us).
func (p *prober) perOp(name string, ops int, unitNS float64, trial func() time.Duration) {
	p.out[name] = float64(best3(trial).Nanoseconds()) / unitNS / float64(ops)
}

// rate stores the best throughput in MB/s.
func (p *prober) rate(name string, bytes int, trial func() time.Duration) {
	p.out[name] = float64(bytes) / mb / best3(trial).Seconds()
}

func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// heapAndStack is the live memory a probe's retained state occupies.
func heapAndStack() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse + m.StackInuse)
}

func totalAlloc() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc)
}

// runProbes runs every layer probe.
func runProbes(div int) map[string]float64 {
	p := &prober{div: div, out: map[string]float64{}}
	p.vtime()
	p.mpi()
	p.kvbuf()
	p.storage()
	p.core()
	p.trace()
	p.metrics()
	p.introspect()
	return p.out
}

func (p *prober) vtime() {
	procs, sleeps := p.w(1024), p.n(100)
	p.perOp("vtime.probe.dispatch_ns", procs*sleeps, 1, func() time.Duration {
		sim := vtime.NewSim()
		for i := 0; i < procs; i++ {
			d := time.Duration(i+1) * time.Microsecond
			sim.Spawn("p", func(pr *vtime.Proc) {
				for k := 0; k < sleeps; k++ {
					pr.Sleep(d)
				}
			})
		}
		return timed(func() { sim.Run() })
	})

	timers := p.n(200000)
	p.perOp("vtime.probe.timer_arm_stop_ns", timers, 1, func() time.Duration {
		sim := vtime.NewSim()
		return timed(func() {
			for i := 0; i < timers; i++ {
				sim.After(time.Duration(i+1)*time.Microsecond, func() {}).Stop()
			}
			sim.Run()
		})
	})

	const sharers = 64
	acquires := p.n(1000)
	p.perOp("vtime.probe.bandwidth_acquire_ns", sharers*acquires, 1, func() time.Duration {
		sim := vtime.NewSim()
		bw := vtime.NewBandwidth(sim, "probe", 1e9)
		for i := 0; i < sharers; i++ {
			amount := float64(1000 + i)
			sim.Spawn("p", func(pr *vtime.Proc) {
				for k := 0; k < acquires; k++ {
					bw.Acquire(pr, amount)
				}
			})
		}
		return timed(func() { sim.Run() })
	})

	trips := p.n(50000)
	p.perOp("vtime.probe.queue_roundtrip_ns", trips, 1, func() time.Duration {
		sim := vtime.NewSim()
		ping, pong := vtime.NewQueue(sim), vtime.NewQueue(sim)
		sim.Spawn("a", func(pr *vtime.Proc) {
			for k := 0; k < trips; k++ {
				ping.Send(k)
				pong.Recv(pr)
			}
		})
		sim.Spawn("b", func(pr *vtime.Proc) {
			for k := 0; k < trips; k++ {
				ping.Recv(pr)
				pong.Send(k)
			}
		})
		return timed(func() { sim.Run() })
	})

	spawns := p.n(20000)
	p.perOp("vtime.probe.spawn_us", spawns, 1000, func() time.Duration {
		sim := vtime.NewSim()
		return timed(func() {
			for i := 0; i < spawns; i++ {
				sim.Spawn("p", func(*vtime.Proc) {})
			}
			sim.Run()
		})
	})

	parked := p.n(10000)
	sim := vtime.NewSim()
	before := heapAndStack()
	for i := 0; i < parked; i++ {
		sim.Spawn("p", func(pr *vtime.Proc) { pr.Park() })
	}
	sim.Run()
	p.out["vtime.probe.kb_per_parked_proc"] = (heapAndStack() - before) / 1024 / float64(parked)
	for _, pr := range sim.Procs() {
		sim.Kill(pr)
	}
	sim.Run()
}

// world runs main on n ranks of a fresh cluster and returns the host time
// of Sim.Run and the events it took.
func world(n int, main func(c *mpi.Comm)) (time.Duration, uint64) {
	clus := newCluster(n)
	mpi.Launch(clus, n, main)
	d := timed(func() { clus.Sim.Run() })
	return d, clus.Sim.EventsProcessed()
}

func (p *prober) mpi() {
	msgs := p.n(20000)
	p.perOp("mpi.probe.pingpong_ns", 2*msgs, 1, func() time.Duration {
		payload := make([]byte, 64)
		d, _ := world(2, func(c *mpi.Comm) {
			peer := 1 - c.Rank()
			for k := 0; k < msgs; k++ {
				if c.Rank() == 0 {
					_ = c.Send(peer, 0, payload)
					_, _ = c.Recv(peer, 0)
				} else {
					_, _ = c.Recv(peer, 0)
					_ = c.Send(peer, 0, payload)
				}
			}
		})
		return d
	})

	// Hub incast drained in reverse (src, tag) order: the worst case for a
	// linear matcher, O(1) for the indexed one. Two hubs, 32 banked messages
	// per sender: depth ~2000 per hub at 128 ranks.
	const hubs, burst = 2, 32
	ranks, rounds := p.w(128), p.n(4)
	p.perOp("mpi.probe.incast_ns", (ranks-hubs)*(burst+1)*rounds, 1, func() time.Duration {
		payload, ack := make([]byte, 64), make([]byte, 8)
		d, _ := world(ranks, func(c *mpi.Comm) {
			me, n := c.Rank(), c.Size()
			for round := 0; round < rounds; round++ {
				if me >= hubs {
					for t := 0; t < burst; t++ {
						_ = c.Send(me%hubs, t, payload)
					}
					_, _ = c.Recv(me%hubs, burst)
					continue
				}
				for src := n - 1; src >= hubs; src-- {
					if src%hubs != me {
						continue
					}
					for t := burst - 1; t >= 0; t-- {
						_, _ = c.Recv(src, t)
					}
				}
				for src := hubs; src < n; src++ {
					if src%hubs == me {
						_ = c.Send(src, burst, ack)
					}
				}
			}
		})
		return d
	})

	big, ops := p.w(1024), p.n(4)
	p.perOp("mpi.probe.barrier_ns_per_rank", big*ops, 1, func() time.Duration {
		d, _ := world(big, func(c *mpi.Comm) {
			for k := 0; k < ops; k++ {
				_ = c.Barrier()
			}
		})
		return d
	})
	p.perOp("mpi.probe.allgather_ns_per_rank", big, 1, func() time.Duration {
		d, _ := world(big, func(c *mpi.Comm) { _, _ = c.Allgather([]byte{1, 2, 3, 4, 5, 6, 7, 8}) })
		return d
	})

	// The shuffle's collective: a ring of W-1 pairwise exchanges per rank,
	// even when every buffer is empty.
	a2a := p.w(256)
	pairs := a2a * (a2a - 1)
	alltoallv := func(size int) func() time.Duration {
		return func() time.Duration {
			d, events := world(a2a, func(c *mpi.Comm) {
				bufs := make([][]byte, c.Size())
				if size > 0 {
					for i := range bufs {
						bufs[i] = make([]byte, size)
					}
				}
				_, _ = c.Alltoallv(bufs)
			})
			if size == 0 {
				p.out["mpi.probe.alltoallv_events_per_pair"] = float64(events) / float64(pairs)
			}
			return d
		}
	}
	p.perOp("mpi.probe.alltoallv_empty_ns_per_pair", pairs, 1, alltoallv(0))
	p.perOp("mpi.probe.alltoallv_1k_ns_per_pair", pairs, 1, alltoallv(1024))

	// One rank dies; the survivors revoke, shrink and agree.
	shrinkW := p.w(512)
	p.perOp("mpi.probe.shrink_ns_per_rank", shrinkW, 1, func() time.Duration {
		clus := newCluster(shrinkW)
		w := mpi.Launch(clus, shrinkW, func(c *mpi.Comm) {
			c.SetErrHandler(func(*mpi.Comm, error) {})
			if err := c.Barrier(); err == nil {
				err = c.Barrier()
				if err == nil {
					return
				}
			}
			_ = c.Revoke()
			if nc, err := c.Shrink(); err == nil {
				_, _ = nc.Agree(1)
			}
		})
		clus.Sim.After(time.Microsecond, func() { w.Kill(shrinkW / 2) })
		return timed(func() { clus.Sim.Run() })
	})
}

// zipfKeys draws wordcount keys the way workloads.GenCorpus does.
func zipfKeys(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.07, 4.0, 19999)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("w%06d", zipf.Uint64()))
	}
	return keys
}

func (p *prober) kvbuf() {
	pairs := p.n(200000)
	keys := zipfKeys(pairs)
	one := []byte{1}
	fill := func() *kvbuf.KV {
		kv := kvbuf.NewKV()
		for _, k := range keys {
			kv.Add(k, one)
		}
		return kv
	}
	p.perOp("kvbuf.probe.add_ns", pairs, 1, func() time.Duration { return timed(func() { fill() }) })
	kv := fill()
	p.perOp("kvbuf.probe.partition_ns", pairs, 1, func() time.Duration { return timed(func() { kv.Partition(32) }) })
	var kmv *kvbuf.KMV
	p.perOp("kvbuf.probe.convert2_ns", pairs, 1, func() time.Duration {
		return timed(func() {
			var st kvbuf.ConvertStats
			kmv, st = kvbuf.ConvertTwoPass(kv)
			p.out["kvbuf.probe.convert2_bytes_per_pair"] = float64(st.Total()) / float64(pairs)
		})
	})
	p.perOp("kvbuf.probe.convert4_ns", pairs, 1, func() time.Duration {
		return timed(func() {
			_, st := kvbuf.ConvertFourPass(kv)
			p.out["kvbuf.probe.convert4_bytes_per_pair"] = float64(st.Total()) / float64(pairs)
		})
	})
	p.rate("kvbuf.probe.kmv_codec_mb_per_s", len(kvbuf.EncodeKMV(kmv)), func() time.Duration {
		return timed(func() { _, _ = kvbuf.DecodeKMV(kvbuf.EncodeKMV(kmv)) })
	})
}

// inProc runs body as the only process of sim and returns the host time of
// Sim.Run.
func inProc(sim *vtime.Sim, body func(pr *vtime.Proc)) time.Duration {
	sim.Spawn("probe", body)
	return timed(func() { sim.Run() })
}

func (p *prober) storage() {
	// A checkpoint stream: 256-byte appends growing to 4 MB at full size.
	appends := p.n(16384)
	chunk := make([]byte, 256)
	p.perOp("storage.probe.fs_append_ns", appends, 1, func() time.Duration {
		fs := storage.NewFS()
		return timed(func() {
			for i := 0; i < appends; i++ {
				fs.Append("stream", chunk)
			}
		})
	})
	fs := storage.NewFS()
	file := make([]byte, p.n(4*mb))
	fs.Write("pfs:file", file)
	reads := 16
	p.rate("storage.probe.fs_read_mb_per_s", reads*len(file), func() time.Duration {
		return timed(func() {
			for i := 0; i < reads; i++ {
				_, _ = fs.Read("pfs:file")
			}
		})
	})

	tier := func() (*vtime.Sim, *storage.Tier, *storage.Tier) {
		sim := vtime.NewSim()
		fs := storage.NewFS()
		mk := func(name string) *storage.Tier {
			return storage.NewTier(name, fs, vtime.NewBandwidth(sim, name, 2e9), 20*time.Microsecond, name+":")
		}
		return sim, mk("a"), mk("b")
	}
	ops := p.n(16384)
	p.perOp("storage.probe.tier_append_ns", ops, 1, func() time.Duration {
		sim, a, _ := tier()
		return inProc(sim, func(pr *vtime.Proc) {
			for i := 0; i < ops; i++ {
				_, _ = a.AppendFile(pr, "stream", chunk, 1)
			}
		})
	})
	p.perOp("storage.probe.tier_read_ns", ops, 1, func() time.Duration {
		sim, a, _ := tier()
		a.FS.Write("a:small", make([]byte, 4096))
		return inProc(sim, func(pr *vtime.Proc) {
			for i := 0; i < ops; i++ {
				_, _, _ = a.ReadFile(pr, "small")
			}
		})
	})
	p.rate("storage.probe.tier_copy_mb_per_s", reads*len(file), func() time.Duration {
		sim, a, b := tier()
		a.FS.Write("a:file", file)
		return inProc(sim, func(pr *vtime.Proc) {
			for i := 0; i < reads; i++ {
				_, _ = a.Copy(pr, "file", b, "copy")
			}
		})
	})
}

// core times what checkpointing costs the host per frame. The frame codec
// is unexported, so the only outside view is a differential: the same small
// job with and without checkpoints.
func (p *prober) core() {
	sc := func(m core.Model) scenario {
		return wordcount("probe", p.w(16), wcParams(1, 64, p.n(1024)), model(m), nil)
	}
	var frames int64
	job := func(m core.Model) func() time.Duration {
		return func() time.Duration {
			s := sc(m)
			c := newCluster(s.ranks)
			s.gen(c)
			h := s.launch(c)
			d := timed(func() { c.Sim.Run() })
			frames = 0
			for _, rm := range h.Result().Ranks {
				frames += rm.CkptFrames
			}
			return d
		}
	}
	none := best3(job(core.ModelNone))
	ckpt := best3(job(core.ModelCheckpointRestart))
	p.out["core.probe.ckpt_host_us_per_frame"] = float64((ckpt - none).Microseconds()) / float64(max(frames, 1))
}

func (p *prober) trace() {
	emits := p.n(1000000)
	p.perOp("trace.probe.emit_ns", emits, 1, func() time.Duration {
		rec := trace.New(vtime.NewSim(), 0).Rank(0)
		return timed(func() {
			for i := 0; i < emits; i++ {
				rec.SendEnd(1, 2, 64, uint64(i))
			}
		})
	})

	const ringRanks = 32
	tr := trace.New(vtime.NewSim(), 0)
	before := totalAlloc()
	for r := 0; r < ringRanks; r++ {
		tr.Rank(r)
	}
	p.out["trace.probe.ring_bytes_per_slot"] = (totalAlloc() - before) / (ringRanks * trace.DefaultCapacity)

	// A real event stream for the codecs and the critical-path walk: a small
	// traced wordcount job.
	s := wordcount("probe", p.w(32), wcParams(1, 64, p.n(256)), model(core.ModelDetectResumeWC), nil)
	c := newCluster(s.ranks)
	c.Trace = trace.New(c.Sim, trace.DefaultCapacity)
	s.gen(c)
	s.launch(c)
	c.Sim.Run()
	events := c.Trace.Events()
	if d := c.Trace.DropEvents(); len(d) > 0 {
		panic("trace probe: the job outgrew the default ring; shrink it")
	}
	var buf bytes.Buffer
	p.perOp("trace.probe.write_jsonl_ns_per_event", len(events), 1, func() time.Duration {
		buf.Reset()
		return timed(func() { _ = c.Trace.WriteJSONL(&buf) })
	})
	p.perOp("trace.probe.read_jsonl_ns_per_event", len(events), 1, func() time.Duration {
		return timed(func() { _, _, _ = trace.ReadJSONL(bytes.NewReader(buf.Bytes())) })
	})
	p.perOp("critpath.probe.analyze_ns_per_event", len(events), 1, func() time.Duration {
		return timed(func() { _, _ = critpath.Analyze(events) })
	})
}

func (p *prober) metrics() {
	adds := p.n(5000000)
	p.perOp("metrics.probe.counter_add_ns", adds, 1, func() time.Duration {
		ctr := metrics.New(vtime.NewSim()).Counter("probe_adds", "probe", 0)
		return timed(func() {
			for i := 0; i < adds; i++ {
				ctr.Add(1)
			}
		})
	})
	reg := metrics.New(vtime.NewSim())
	ranks := p.n(1000)
	const families = 8
	for f := 0; f < families; f++ {
		for r := 0; r < ranks; r++ {
			reg.Counter(fmt.Sprintf("probe_family_%d", f), "probe", r).Add(float64(r))
		}
	}
	kseries := float64(families*ranks) / 1000
	var snap metrics.Snapshot
	p.out["metrics.probe.snapshot_us_per_kseries"] = float64(best3(func() time.Duration {
		return timed(func() { snap = reg.Snapshot() })
	}).Microseconds()) / kseries
	p.out["metrics.probe.openmetrics_roundtrip_us_per_kseries"] = float64(best3(func() time.Duration {
		return timed(func() {
			var buf bytes.Buffer
			_ = metrics.WriteOpenMetrics(&buf, snap)
			_, _ = metrics.ParseOpenMetrics(&buf)
		})
	}).Microseconds()) / kseries
}

// introspect times one capture of a world whose every rank is parked in a
// receive that will never be matched.
func (p *prober) introspect() {
	ranks := p.w(1024)
	clus := newCluster(ranks)
	clus.Introspect = introspect.New(clus.Sim, time.Second)
	w := mpi.Launch(clus, ranks, func(c *mpi.Comm) { _, _ = c.Recv((c.Rank()+1)%c.Size(), 0) })
	clus.Sim.Run()
	p.perOp("introspect.probe.capture_us_per_rank", ranks, 1000, func() time.Duration {
		return timed(func() { clus.Introspect.Final() })
	})
	for r := 0; r < ranks; r++ {
		w.Kill(r)
	}
	clus.Sim.Run()
}
