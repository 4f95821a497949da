// Command maui runs the scheduler daemon (the Maui analog) against a
// pbs-server started with -external-sched. Each iteration pulls the
// workload snapshot, plans with the extended Maui iteration
// (Algorithm 2 — including dynamic requests and the dynamic fairness
// policies), and commits the decisions.
//
//	maui -server 127.0.0.1:15001 -config maui.cfg -interval 1s
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mauid"
	"repro/internal/proto"
)

func main() {
	var (
		server    = flag.String("server", "127.0.0.1:15001", "pbs-server address")
		cfgPath   = flag.String("config", "", "Maui-style config file (Fig. 6 format)")
		interval  = flag.Duration("interval", time.Second, "iteration interval (a server exchange that takes over 8x this fails the cycle)")
		protoFlag = flag.String("proto", "auto", "wire protocol: v1 (JSON), v2 (binary) or auto (negotiate v2, fall back to v1)")
	)
	flag.Parse()

	mode, err := proto.ParseMode(*protoFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "maui: %v\n", err)
		os.Exit(1)
	}
	sc := config.Default()
	if *cfgPath != "" {
		text, err := os.ReadFile(*cfgPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "maui: %v\n", err)
			os.Exit(1)
		}
		sc, err = config.Parse(string(text))
		if err != nil {
			fmt.Fprintf(os.Stderr, "maui: %s: %v\n", *cfgPath, err)
			os.Exit(1)
		}
	}
	d := mauid.New(*server, core.New(core.Options{Config: sc}, 0), *interval)
	d.Proto = mode
	d.Start()
	fmt.Printf("maui scheduling %s every %v (DFSPolicy %s)\n", *server, *interval, sc.Fairness.Policy)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	d.Close()
}
