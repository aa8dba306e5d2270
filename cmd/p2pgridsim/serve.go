package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/economy"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wire"
)

// runServe runs the long-lived scheduler daemon: one grid behind the /v1
// HTTP API, alive until SIGTERM/SIGINT triggers a graceful drain. The HTTP
// listener stays up during the drain so clients observe the 503s and the
// draining health state instead of connection resets; once the last
// in-flight workflow resolves, the listener shuts down and the process
// exits 0.
func runServe(o options) error {
	price, err := economy.ParsePrice(o.price)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(o.stderr, o.logLevel, o.logFormat)
	if err != nil {
		return err
	}
	svc, err := service.New(service.Config{
		Scale:       o.scale,
		Algo:        o.algo,
		Seed:        o.seed,
		MaxInFlight: o.maxInFlight,
		Pace:        o.pace,
		Price:       price,
		Log:         logger,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", o.serve)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	handler := service.Handler(svc)
	if o.pprofOn {
		// Explicit mounts on an outer mux, not net/http/pprof's package
		// init on http.DefaultServeMux: with -pprof off the daemon must
		// 404 these paths, not quietly expose them.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		handler = mux
	}
	srv := &http.Server{Handler: handler}
	fmt.Fprintf(o.stderr, "p2pgridsim: serving %s on %s (%s clock, %s scale, %s, max %d in flight)\n",
		wire.APIV1, ln.Addr(), svc.Clock(), o.scale.Name, o.algo, o.maxInFlight)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sig)

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case s := <-sig:
		fmt.Fprintf(o.stderr, "p2pgridsim: %v: draining (in-flight workflows finish, new submissions are refused)\n", s)
	}

	m, drainErr := svc.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(o.stderr, "p2pgridsim: http shutdown:", err)
	}
	if drainErr != nil {
		return drainErr
	}
	fmt.Fprintf(o.stderr, "p2pgridsim: drained at t=%.0fs: %d admitted, %d completed, %d failed, %d rejected, %d dropped\n",
		m.NowSeconds, m.Admitted, m.Snapshot.Completed, m.Snapshot.Failed, m.Rejected, m.Dropped)
	return nil
}
