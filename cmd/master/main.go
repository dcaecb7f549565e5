// Command master runs the scheduling master of a real distributed
// Mandelbrot render: workers (cmd/worker) connect over TCP from any
// machine, request columns under the chosen self-scheduling scheme,
// and piggy-back their pixels; the master assembles the PNG.
//
//	master -listen :7000 -workers 4 -scheme DTSS -o farm.png
//	worker -master host:7000 -id 0 &
//	worker -master host:7000 -id 1 -power 1 -scale 3 &
//	...
package main

import (
	"flag"
	"fmt"
	"image/png"
	"net"
	"os"
	"time"

	"loopsched"
	"loopsched/internal/exec"
)

func main() {
	var (
		listen     = flag.String("listen", ":7000", "TCP address to accept workers on")
		workers    = flag.Int("workers", 4, "number of workers that will join")
		schemeName = flag.String("scheme", "DTSS", "self-scheduling scheme")
		out        = flag.String("o", "farm.png", "output PNG")
		width      = flag.Int("width", 1200, "image width (columns = iterations)")
		height     = flag.Int("height", 900, "image height")
		maxIter    = flag.Int("maxiter", 200, "escape-time bound")
		timeout    = flag.Duration("worker-timeout", 60*time.Second, "fail workers silent this long (0 = never)")
	)
	flag.Parse()

	scheme, err := loopsched.LookupScheme(*schemeName)
	if err != nil {
		fail(err)
	}
	// Real multi-machine deployments are the one place the manual
	// master wiring is the right tool (Run and NewScheduler self-host
	// their fleets in-process).
	master, err := exec.NewMaster(scheme, *width, *workers)
	if err != nil {
		fail(err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail(err)
	}
	defer master.Shutdown(ln)
	if err := master.Serve(ln); err != nil {
		fail(err)
	}
	fmt.Printf("master: %s on %s, waiting for %d workers (%dx%d)\n",
		scheme.Name(), ln.Addr(), *workers, *width, *height)

	var watchDone chan struct{}
	if *timeout > 0 {
		watchDone = make(chan struct{})
		go func() {
			defer close(watchDone)
			// Returns when the run's done channel closes, so the join
			// below cannot outlast Wait by more than an instant.
			master.WatchTimeouts(*timeout/4, *timeout, nil)
		}()
	}

	columns, rep, err := master.Wait()
	if watchDone != nil {
		<-watchDone
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("master: %d columns in %d chunks, %.2fs, %d replans\n",
		rep.Iterations, rep.Chunks, rep.Tp, rep.Replans)
	fmt.Printf("master: mean per-PE comm %.2fs, wait %.2fs, idle %.2fs\n",
		rep.MeanComm(), rep.MeanWait(), rep.MeanIdle())

	p := loopsched.MandelbrotParams{
		Region: loopsched.PaperRegion, Width: *width, Height: *height, MaxIter: *maxIter,
	}
	img := loopsched.AssembleMandelbrot(p, columns)
	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := png.Encode(f, img); err != nil {
		fail(err)
	}
	fmt.Println("master: wrote", *out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "master:", err)
	os.Exit(1)
}
