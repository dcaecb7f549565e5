// Command worker joins a cmd/master render as one slave: it connects
// over TCP, reports its available computing power (virtual power over
// the host's real run queue, the paper's A_i = V_i/Q_i), computes the
// assigned Mandelbrot columns, and piggy-backs the pixels on each
// request.
//
//	worker -master host:7000 -id 0 -power 3
package main

import (
	"flag"
	"fmt"
	"os"

	"loopsched"
)

func main() {
	var (
		masterAddr = flag.String("master", "127.0.0.1:7000", "master's TCP address")
		id         = flag.Int("id", 0, "worker id (0-based, unique per worker)")
		power      = flag.Float64("power", 1, "virtual power V_i relative to the slowest machine")
		scale      = flag.Int("scale", 1, "emulate a 1/scale-speed machine by repeating each column")
		width      = flag.Int("width", 1200, "image width — must match the master")
		height     = flag.Int("height", 900, "image height — must match the master")
		maxIter    = flag.Int("maxiter", 200, "escape-time bound — must match the master")
		probeOS    = flag.Bool("os-load", true, "report the host's real run queue (/proc/loadavg) as Q_i")
		pipeline   = flag.Bool("pipeline", true, "request more work one master round trip before running out (pipelined protocol)")
		transport  = flag.String("transport", "", "wire format: binary or netrpc (default: $LOOPSCHED_TRANSPORT, else binary)")
		window     = flag.Int("window", 0, "credit window on the binary transport: chunks held at most beyond the one computing (0 = each ask sized from the measured round trip)")
	)
	flag.Parse()

	p := loopsched.MandelbrotParams{
		Region: loopsched.PaperRegion, Width: *width, Height: *height, MaxIter: *maxIter,
	}
	w := loopsched.Worker{
		ID:           *id,
		VirtualPower: *power,
		WorkScale:    *scale,
		Pipeline:     *pipeline,
		Transport:    loopsched.RPCTransport(*transport),
		Window:       *window,
		ACPModel:     loopsched.ACPModel{Scale: 10},
		Kernel: func(col int) []byte {
			return loopsched.MandelbrotShadedColumn(p, col)
		},
	}
	if *probeOS {
		w.LoadProbe = loopsched.OSLoadProbe()
	}
	fmt.Printf("worker %d: joining %s (V=%g, scale=%d)\n", *id, *masterAddr, *power, *scale)
	if err := w.Run(*masterAddr); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	fmt.Printf("worker %d: done\n", *id)
}
