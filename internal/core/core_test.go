package core

import (
	"runtime"
	"testing"
	"time"

	"ioctopus/internal/eth"
	"ioctopus/internal/kernel"
	"ioctopus/internal/netstack"
	"ioctopus/internal/topology"
)

// runStream wires a one-way client->server stream for dur and returns
// the bytes the server application received.
func runStream(t *testing.T, cfg Config, serverCore topology.CoreID, serverIP uint32, msg int64, dur time.Duration) (int64, *Cluster) {
	t.Helper()
	cl := NewCluster(cfg)
	var received int64
	cl.Server.Stack.Listen(7, func(s *netstack.Socket) {
		cl.Server.Kernel.Spawn("netserver", serverCore, func(th *kernel.Thread) {
			s.SetOwner(th)
			for {
				n, _, ok := s.Recv(th)
				if !ok {
					return
				}
				received += n
			}
		})
	})
	cl.Client.Kernel.Spawn("netperf", 0, func(th *kernel.Thread) {
		sock, err := cl.Client.Stack.Dial(th, serverIP, 7, eth.ProtoTCP)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for {
			sock.Send(th, msg)
		}
	})
	cl.Run(dur)
	cl.Drain()
	return received, cl
}

func TestEndToEndStreamDelivers(t *testing.T) {
	got, cl := runStream(t, Config{Mode: ModeStandard}, 0, IPServerPF0, 64*1024, 5*time.Millisecond)
	if got == 0 {
		t.Fatal("no data delivered end to end")
	}
	if cl.Server.Stack.RxDrops() > 0 {
		t.Fatalf("unexpected rx drops: %d", cl.Server.Stack.RxDrops())
	}
}

func TestLocalThroughputNearPaper(t *testing.T) {
	// Paper Fig 6: single-core TCP Rx at 64KB messages, local: ~22 Gb/s.
	got, _ := runStream(t, Config{Mode: ModeStandard}, 0, IPServerPF0, 64*1024, 20*time.Millisecond)
	gbps := float64(got) * 8 / 0.020 / 1e9
	if gbps < 15 || gbps > 32 {
		t.Fatalf("local single-core Rx = %.1f Gb/s, want ~22 (15..32)", gbps)
	}
}

func TestRemoteSlowerThanLocal(t *testing.T) {
	local, _ := runStream(t, Config{Mode: ModeStandard}, 0, IPServerPF0, 64*1024, 20*time.Millisecond)
	remote, _ := runStream(t, Config{Mode: ModeStandard}, 14, IPServerPF0, 64*1024, 20*time.Millisecond)
	ratio := float64(local) / float64(remote)
	if ratio < 1.10 || ratio > 1.6 {
		t.Fatalf("local/remote = %.2f (local %d, remote %d), want ~1.25", ratio, local, remote)
	}
}

func TestIOctopusMatchesLocalEitherSocket(t *testing.T) {
	local, _ := runStream(t, Config{Mode: ModeStandard}, 0, IPServerPF0, 64*1024, 20*time.Millisecond)
	octo0, _ := runStream(t, Config{Mode: ModeIOctopus}, 0, IPServerPF0, 64*1024, 20*time.Millisecond)
	octo1, _ := runStream(t, Config{Mode: ModeIOctopus}, 14, IPServerPF0, 64*1024, 20*time.Millisecond)
	for name, got := range map[string]int64{"octo-node0": octo0, "octo-node1": octo1} {
		r := float64(got) / float64(local)
		if r < 0.9 || r > 1.15 {
			t.Fatalf("%s/local = %.2f (octo %d, local %d), want ~1.0", name, r, got, local)
		}
	}
}

func TestRemoteMemoryBandwidthIs3xThroughput(t *testing.T) {
	// Paper Fig 6b: remote Rx moves ~3x the network throughput in DRAM.
	cl := NewCluster(Config{Mode: ModeStandard})
	var received int64
	cl.Server.Stack.Listen(7, func(s *netstack.Socket) {
		cl.Server.Kernel.Spawn("netserver", 14, func(th *kernel.Thread) {
			s.SetOwner(th)
			for {
				n, _, ok := s.Recv(th)
				if !ok {
					return
				}
				received += n
			}
		})
	})
	cl.Client.Kernel.Spawn("netperf", 0, func(th *kernel.Thread) {
		sock, err := cl.Client.Stack.Dial(th, IPServerPF0, 7, eth.ProtoTCP)
		if err != nil {
			return
		}
		for {
			sock.Send(th, 64*1024)
		}
	})
	cl.Run(5 * time.Millisecond) // warmup
	cl.ResetStats()
	before := received
	cl.Run(20 * time.Millisecond)
	window := received - before
	dram := cl.Server.Mem.TotalDRAMBytes()
	ratio := dram / float64(window)
	cl.Drain()
	if ratio < 2.0 || ratio > 4.2 {
		t.Fatalf("DRAM/throughput = %.2f (dram %.0f, net %d), want ~3", ratio, dram, window)
	}
}

func TestLocalMemoryBandwidthNearZero(t *testing.T) {
	cl := NewCluster(Config{Mode: ModeStandard})
	var received int64
	cl.Server.Stack.Listen(7, func(s *netstack.Socket) {
		cl.Server.Kernel.Spawn("netserver", 0, func(th *kernel.Thread) {
			s.SetOwner(th)
			for {
				n, _, ok := s.Recv(th)
				if !ok {
					return
				}
				received += n
			}
		})
	})
	cl.Client.Kernel.Spawn("netperf", 0, func(th *kernel.Thread) {
		sock, err := cl.Client.Stack.Dial(th, IPServerPF0, 7, eth.ProtoTCP)
		if err != nil {
			return
		}
		for {
			sock.Send(th, 64*1024)
		}
	})
	cl.Run(5 * time.Millisecond)
	cl.ResetStats()
	before := received
	cl.Run(20 * time.Millisecond)
	window := received - before
	dram := cl.Server.Mem.TotalDRAMBytes()
	ratio := dram / float64(window)
	cl.Drain()
	if ratio > 0.5 {
		t.Fatalf("local DRAM/throughput = %.2f, want ~0 (DDIO)", ratio)
	}
}

func TestOctoSteersAfterMigration(t *testing.T) {
	// The Fig 14 mechanism: traffic follows the thread to the other PF.
	cl := NewCluster(Config{Mode: ModeIOctopus})
	var srv *netstack.Socket
	var serverThread *kernel.Thread
	cl.Server.Stack.Listen(7, func(s *netstack.Socket) {
		srv = s
		serverThread = cl.Server.Kernel.Spawn("netserver", 0, func(th *kernel.Thread) {
			s.SetOwner(th)
			for {
				if _, _, ok := s.Recv(th); !ok {
					return
				}
			}
		})
	})
	cl.Client.Kernel.Spawn("netperf", 0, func(th *kernel.Thread) {
		sock, err := cl.Client.Stack.Dial(th, IPServerPF0, 7, eth.ProtoTCP)
		if err != nil {
			return
		}
		for {
			sock.Send(th, 64*1024)
		}
	})
	cl.Run(10 * time.Millisecond)
	if srv == nil || serverThread == nil {
		t.Fatal("connection not established")
	}
	pf0Before := cl.Server.NIC.PF(0).RxBytes()
	pf1Before := cl.Server.NIC.PF(1).RxBytes()
	if pf0Before == 0 {
		t.Fatal("traffic should start on PF0 (thread on node 0)")
	}
	if pf1Before != 0 {
		t.Fatalf("PF1 got %v bytes before migration", pf1Before)
	}
	// Migrate the server thread to socket 1.
	cl.Server.Kernel.SetAffinity(serverThread, 14)
	cl.Run(10 * time.Millisecond)
	pf1Delta := cl.Server.NIC.PF(1).RxBytes() - pf1Before
	cl.Drain()
	if pf1Delta == 0 {
		t.Fatal("IOctoRFS did not move traffic to PF1 after migration")
	}
	if cl.Octo.UpdatesApplied() == 0 {
		t.Fatal("no MPFS updates applied")
	}
}

func TestStandardModeDoesNotFollowMigration(t *testing.T) {
	cl := NewCluster(Config{Mode: ModeStandard})
	var serverThread *kernel.Thread
	cl.Server.Stack.Listen(7, func(s *netstack.Socket) {
		serverThread = cl.Server.Kernel.Spawn("netserver", 0, func(th *kernel.Thread) {
			s.SetOwner(th)
			for {
				if _, _, ok := s.Recv(th); !ok {
					return
				}
			}
		})
	})
	cl.Client.Kernel.Spawn("netperf", 0, func(th *kernel.Thread) {
		sock, err := cl.Client.Stack.Dial(th, IPServerPF0, 7, eth.ProtoTCP)
		if err != nil {
			return
		}
		for {
			sock.Send(th, 64*1024)
		}
	})
	cl.Run(10 * time.Millisecond)
	cl.Server.Kernel.SetAffinity(serverThread, 14)
	cl.Run(10 * time.Millisecond)
	pf1 := cl.Server.NIC.PF(1).RxBytes()
	cl.Drain()
	if pf1 != 0 {
		t.Fatalf("standard firmware moved %v bytes to PF1; MAC steering cannot do that", pf1)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, _ := runStream(t, Config{Mode: ModeIOctopus, Seed: 42}, 0, IPServerPF0, 16*1024, 5*time.Millisecond)
	b, _ := runStream(t, Config{Mode: ModeIOctopus, Seed: 42}, 0, IPServerPF0, 16*1024, 5*time.Millisecond)
	if a != b {
		t.Fatalf("same seed, different results: %d vs %d", a, b)
	}
}

func TestTxStreamServerToClient(t *testing.T) {
	// Server transmits (Fig 7 direction): single core, TSO.
	cl := NewCluster(Config{Mode: ModeStandard})
	var received int64
	cl.Client.Stack.Listen(7, func(s *netstack.Socket) {
		// Softirq on core 0, app on core 1 (both node 0, NIC-local):
		// the receive work splits across two client cores, so the
		// measured server transmit path is the bottleneck, as in §5.1.
		s.SteerTo(0)
		cl.Client.Kernel.Spawn("sink", 1, func(th *kernel.Thread) {
			for {
				n, _, ok := s.Recv(th)
				if !ok {
					return
				}
				received += n
			}
		})
	})
	cl.Server.Kernel.Spawn("netperf-tx", 0, func(th *kernel.Thread) {
		sock, err := cl.Server.Stack.Dial(th, IPClient, 7, eth.ProtoTCP)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for {
			sock.Send(th, 64*1024)
		}
	})
	cl.Run(20 * time.Millisecond)
	gbps := float64(received) * 8 / 0.020 / 1e9
	cl.Drain()
	if gbps < 25 {
		t.Fatalf("Tx throughput = %.1f Gb/s, want ~45 (>25)", gbps)
	}
}

func TestModeString(t *testing.T) {
	if ModeStandard.String() != "standard" || ModeIOctopus.String() != "ioctopus" {
		t.Fatal("mode names wrong")
	}
}

func TestByteConservation(t *testing.T) {
	// Property: on the lossless TCP testbed, what the client app sends
	// equals what the server app receives plus bounded in-flight bytes.
	for _, mode := range []NICMode{ModeStandard, ModeIOctopus} {
		cl := NewCluster(Config{Mode: mode})
		var received int64
		cl.Server.Stack.Listen(7, func(s *netstack.Socket) {
			cl.Server.Kernel.Spawn("srv", 0, func(th *kernel.Thread) {
				s.SetOwner(th)
				for {
					n, _, ok := s.Recv(th)
					if !ok {
						return
					}
					received += n
				}
			})
		})
		var clientSock *netstack.Socket
		cl.Client.Kernel.Spawn("cli", 0, func(th *kernel.Thread) {
			sock, err := cl.Client.Stack.Dial(th, IPServerPF0, 7, eth.ProtoTCP)
			if err != nil {
				return
			}
			clientSock = sock
			for {
				sock.Send(th, 16*1024)
			}
		})
		cl.Run(20 * time.Millisecond)
		sent := clientSock.SentBytes()
		inFlightBound := int64(12 << 20) // window + receive buffer + wire
		if received > sent {
			t.Fatalf("%v: received %d > sent %d", mode, received, sent)
		}
		if sent-received > inFlightBound {
			t.Fatalf("%v: %d bytes unaccounted (sent %d, received %d)", mode, sent-received, sent, received)
		}
		if cl.Server.NIC.RxDrops() != 0 || cl.Server.Stack.RxDrops() != 0 {
			t.Fatalf("%v: drops on a windowed TCP stream", mode)
		}
		cl.Drain()
	}
}

func TestRandomizedMixedTrafficConservation(t *testing.T) {
	// Fuzz-ish: random message sizes in both directions on several
	// sockets; everything sent must arrive, in order, without drops.
	cl := NewCluster(Config{Mode: ModeIOctopus, Seed: 99})
	defer cl.Drain()
	const conns = 4
	var sent, received [conns]int64
	for i := 0; i < conns; i++ {
		i := i
		port := uint16(9000 + i)
		cl.Server.Stack.Listen(port, func(s *netstack.Socket) {
			cl.Server.Kernel.Spawn("srv", topology.CoreID(i*3%28), func(th *kernel.Thread) {
				s.SetOwner(th)
				for {
					n, _, ok := s.Recv(th)
					if !ok {
						return
					}
					received[i] += n
					// Echo a random-sized reply to mix directions.
					s.SendMsg(th, (n%3000)+1, nil)
				}
			})
		})
		cl.Client.Kernel.Spawn("cli", topology.CoreID(i%14), func(th *kernel.Thread) {
			sock, err := cl.Client.Stack.Dial(th, IPServerPF0, port, eth.ProtoTCP)
			if err != nil {
				return
			}
			rng := cl.RNG.Fork(int64(i))
			for {
				n := int64(rng.Intn(96*1024) + 1)
				sock.SendMsg(th, n, nil)
				sent[i] += n
				if _, _, ok := sock.Recv(th); !ok {
					return
				}
			}
		})
	}
	cl.Run(30 * time.Millisecond)
	for i := 0; i < conns; i++ {
		if sent[i] == 0 {
			t.Fatalf("conn %d never sent", i)
		}
		if received[i] > sent[i] {
			t.Fatalf("conn %d: received %d > sent %d", i, received[i], sent[i])
		}
	}
	if cl.Server.Stack.RxDrops() != 0 || cl.Client.Stack.RxDrops() != 0 {
		t.Fatal("drops under mixed randomized TCP traffic")
	}
}

// TestClusterRegistryWired: every subsystem of both hosts shows up in
// the cluster registry, and the probes observe real traffic.
func TestClusterRegistryWired(t *testing.T) {
	got, cl := runStream(t, Config{Mode: ModeIOctopus}, 0, IPServerPF0, 64*1024, 5*time.Millisecond)
	if got == 0 {
		t.Fatal("no data delivered")
	}
	if cl.Reg == nil {
		t.Fatal("cluster registry not built")
	}
	for _, name := range []string{
		"engine/events_executed",
		"server/nic/rx_frames",
		"server/nic/pf0/rx_bytes",
		"server/nic/pf0/rx/delivered",
		"server/mem/node0/dram_read_bytes",
		"server/mem/node0/memctl/discrete_bytes",
		"server/fabric/link0to1/discrete_bytes",
		"server/kernel/core0/busy_seconds",
		"server/driver/octo0/rx_pending",
		"server/driver/octo0/steer/updates_applied",
		"client/nic/pf0/tx_bytes",
		"client/driver/eth0/tx_in_flight",
	} {
		if _, ok := cl.Reg.Value(name); !ok {
			t.Fatalf("metric %q not registered", name)
		}
	}
	if v, _ := cl.Reg.Value("server/nic/pf0/rx_bytes"); v <= 0 {
		t.Fatalf("server rx_bytes = %v, want > 0 after a stream", v)
	}
	if v, _ := cl.Reg.Value("engine/events_executed"); v <= 0 {
		t.Fatalf("events_executed = %v", v)
	}
	snap := cl.Reg.Snapshot()
	if len(snap) != cl.Reg.Len() {
		t.Fatalf("snapshot %d entries, registry %d", len(snap), cl.Reg.Len())
	}
}

// TestBuildAndDrainLeavesNoGoroutines: cores run as engine callbacks,
// so building a cluster starts far fewer goroutines than it has cores,
// and Drain unwinds every process the build started even though the
// engine never ran. Unwinding is synchronous, so the check needs no
// wait: every process goroutine is gone the moment Drain returns.
func TestBuildAndDrainLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	cl := NewCluster(Config{Mode: ModeIOctopus})
	cores := cl.Server.Kernel.NumCores() + cl.Client.Kernel.NumCores()
	if n := runtime.NumGoroutine() - base; n >= cores {
		t.Fatalf("building a %d-core cluster started %d goroutines", cores, n)
	}
	cl.Drain()
	// Not n != base: the previous test's runner goroutine may still be
	// exiting when base is read, so the count can fall below it. Only
	// a process outliving Drain can raise it above.
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Drain, want at most %d", n, base)
	}
}
