// Distsweep demonstrates the distributed sweep subsystem end to end, in
// one process: a service holding the example scenario batch splits it
// into work units, two workers lease and execute them over loopback HTTP,
// and the service's ordered reader writes the NDJSON results to stdout in
// input order — byte-identical to what `scenario -stream` emits for the
// same batch. The service's store is a single checkpoint journal, so a
// killed run restarted with the same command completes only the
// remainder.
//
//	go run ./examples/distsweep
//	go run ./examples/distsweep | diff - <(go run ./cmd/scenario -f examples/scenarios.json -stream)
//
// Across real machines the same pieces are the sweepd binary:
//
//	sweepd serve -f examples/scenarios.json -addr :8080 -checkpoint sweep.journal -resume
//	sweepd work -coordinator http://host:8080   # on every machine, as many as you like
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/dist"
	"repro/internal/dist/store"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	ctx, stop := cli.SignalContext()
	defer stop()

	f, err := os.Open("examples/scenarios.json")
	if err != nil {
		log.Fatal(err)
	}
	b, err := scenario.LoadBatch(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	// The store is one checkpoint journal, resumed when it exists (its
	// header hash pins it to exactly this input). Any work.Batch
	// distributes the same way — experiments and grids included.
	svcCtx, stopService := context.WithCancel(ctx)
	defer stopService()
	svc, err := dist.NewService(svcCtx, dist.ServiceConfig{
		Store:    store.OpenJournal("distsweep.journal", true),
		Units:    4,
		LeaseTTL: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	st, _, err := svc.Submit(b)
	if err != nil {
		log.Fatal(err)
	}
	if st.ItemsCachedJournal > 0 {
		fmt.Fprintf(os.Stderr, "resuming: %d/%d scenarios already journaled\n", st.ItemsCachedJournal, st.N)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Two workers — in production these are `sweepd work` processes on
	// other machines; here they share our process and loopback HTTP.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("worker-%d", i)
		w := &dist.Worker{
			Coordinator: srv.URL,
			ID:          id,
			Exec:        dist.RegistryExecutor(0),
			OnUnit: func(u dist.Unit) {
				fmt.Fprintf(os.Stderr, "%s finished unit %d (scenarios %d-%d)\n", id, u.ID, u.Range.Lo, u.Range.Hi-1)
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			}
		}()
	}

	// The ordered reader hands over lines in input order as the ordered
	// prefix completes; lines a previous run journaled are skipped, not
	// re-emitted. Once the batch is terminal, stopping the service tells
	// the workers the sweep is over.
	err = svc.Results(ctx, st.ID, func(line []byte, cached bool) error {
		if !cached {
			fmt.Printf("%s\n", line)
		}
		return nil
	})
	stopService()
	wg.Wait()
	if err != nil {
		if cli.Cancelled(err) {
			log.Fatal("cancelled; the journal keeps what finished — rerun to resume")
		}
		log.Fatal(err)
	}
	if final, _ := svc.Batch(st.ID); final.State != dist.BatchDone {
		log.Fatalf("batch %s: %s", final.State, final.Error)
	}
	fmt.Fprintln(os.Stderr, "sweep complete; remove distsweep.journal to rerun from scratch")
}
