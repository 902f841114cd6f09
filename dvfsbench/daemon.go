package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"npudvfs/internal/experiments"
	"npudvfs/internal/server"
	"npudvfs/internal/traceio"
	"npudvfs/internal/workload"
)

// daemon is dvfsd running in this process with its shipped defaults
// (2 workers, queue 16, cache 128), serving loopback HTTP.
type daemon struct {
	lab     *experiments.Lab
	bundles map[string]*traceio.ModelBundle
	srv     *server.Server
	hs      *http.Server
	url     string
	served  chan error
}

// startDaemon calibrates a Lab, optionally fits the bundled model
// bundles, and starts the daemon on a loopback port.
func startDaemon(withBundles bool) (*daemon, error) {
	lab := experiments.NewLab()
	if _, err := lab.Offline(); err != nil {
		return nil, fmt.Errorf("calibrating the lab: %w", err)
	}
	bundles := map[string]*traceio.ModelBundle{}
	fit := bundled
	if !withBundles {
		fit = nil
	}
	for _, name := range fit {
		m, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		ms, err := lab.BuildModels(m, true)
		if err != nil {
			return nil, fmt.Errorf("fitting %s: %w", name, err)
		}
		b, err := ms.Bundle()
		if err != nil {
			return nil, err
		}
		bundles[strings.ToLower(m.Name)] = b
	}
	srv, err := server.New(server.Config{Lab: lab, Bundles: bundles})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		shutdownServer(srv)
		return nil, err
	}
	d := &daemon{
		lab: lab, bundles: bundles, srv: srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the HTTP listener, drains the daemon and waits for both.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

func shutdownServer(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Start-up already failed; that error is the one reported.
	_ = srv.Shutdown(ctx)
}
