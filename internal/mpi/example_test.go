package mpi_test

import (
	"fmt"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/mpi"
)

// Example shows a minimal 4-rank program: a ring token pass followed by an
// allreduce, on a simulated 2-node cluster.
func Example() {
	cfg := cluster.Default()
	cfg.Nodes = 2
	cfg.PPN = 2
	clus := cluster.New(cfg)

	mpi.Launch(clus, 4, func(c *mpi.Comm) {
		// Pass a token around the ring.
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		if c.Rank() == 0 {
			_ = c.Send(next, 1, []byte{1})
			m, _ := c.Recv(prev, 1)
			fmt.Printf("token back at rank 0 with value %d\n", m.Val.([]byte)[0])
		} else {
			m, _ := c.Recv(prev, 1)
			_ = c.Send(next, 1, []byte{m.Val.([]byte)[0] + 1})
		}
		sum, _ := c.AllreduceInt64(int64(c.Rank()), func(a, b int64) int64 { return a + b })
		if c.Rank() == 0 {
			fmt.Printf("allreduce sum = %d\n", sum)
		}
	})
	clus.Sim.Run()
	// Output:
	// token back at rank 0 with value 4
	// allreduce sum = 6
}

// Example_ulfm shows the detect/resume building blocks: a failure surfaces
// as an error, the communicator is revoked and shrunk, and the survivors
// continue.
func Example_ulfm() {
	cfg := cluster.Default()
	cfg.Nodes = 2
	cfg.PPN = 2
	clus := cluster.New(cfg)

	w := mpi.Launch(clus, 4, func(c *mpi.Comm) {
		c.SetErrHandler(func(cc *mpi.Comm, err error) {
			if mpi.IsProcFailed(err) && !cc.Revoked() {
				_ = cc.Revoke()
			}
		})
		// Everyone keeps synchronizing until the failure interrupts.
		for {
			if err := c.Barrier(); err != nil {
				break
			}
			c.Proc().Sleep(1e6) // 1ms
		}
		survivors, err := c.Shrink()
		if err != nil {
			return
		}
		if survivors.Rank() == 0 {
			fmt.Printf("continuing with %d of %d ranks\n", survivors.Size(), c.Size())
		}
	})
	clus.Sim.After(5e6, func() { w.Kill(2) }) // kill rank 2 at t=5ms
	clus.Sim.Run()
	// Output:
	// continuing with 3 of 4 ranks
}
