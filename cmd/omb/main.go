// Command omb is an OSU-Micro-Benchmarks-style driver for the simulated
// cluster — the measurement tool the paper's evaluation uses (ref [12]),
// pointed at the simulated testbed instead of real hardware.
//
// Usage:
//
//	omb <benchmark> [flags]
//
// Benchmarks:
//
//	latency     pingpong one-way latency (verbs level, host- or DPU-posted)
//	bw          streaming RDMA-write bandwidth
//	pingpong    nonblocking two-way isend/irecv + waitall (Figure 4 shape)
//	ialltoall   OMB NBC alltoall: pure, overall, overlap%
//	iallgather  OMB NBC allgather
//	ibcast      OMB NBC broadcast
//	tenants     multi-tenant: foreground Ialltoall latency vs background
//	            bulk jobs sharing one proxy worker per node (-bgjobs N;
//	            -policy picks the foreground policy, recommended
//	            -nodes 2 -ppn 2 for quick runs)
//	drift       mid-run drift: foreground latency before/after chatty
//	            background tenants arrive on a FIFO proxy (-policy picks
//	            the foreground, default feedback; -iters counts foreground
//	            iterations, recommended -nodes 2 -ppn 2 -iters 80)
//
// The -scheme flag selects Proposed / BluesMPI / IntelMPI for the NBC
// benchmarks. All numbers are virtual time and deterministic.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tenant"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// `omb -device list` / `-fleet help` are flag-only queries: no
	// benchmark word, print the capability matrix / grammar and exit 0.
	args := os.Args[1:]
	name := args[0]
	if len(name) > 0 && name[0] == '-' {
		name = ""
	} else {
		args = args[1:]
	}
	fs := flag.NewFlagSet("omb", flag.ExitOnError)
	var (
		nodes  = fs.Int("nodes", 4, "nodes")
		ppn    = fs.Int("ppn", 8, "processes per node")
		scheme = fs.String("scheme", baseline.NameProposed, "Proposed | BluesMPI | IntelMPI")
		minS   = fs.Int("min", 4<<10, "smallest message size")
		maxS   = fs.Int("max", 512<<10, "largest message size")
		warmup = fs.Int("warmup", 4, "warmup iterations")
		iters  = fs.Int("iters", 3, "measured iterations")
		bgjobs = fs.Int("bgjobs", 3, "tenants: largest background bulk-job count swept")
	)
	cf := bench.RegisterCommonFlags(fs)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	cf.Activate()
	if cf.HandleDeviceQuery(os.Stdout) {
		return // -device list / -fleet help: documented exit 0
	}
	if name == "" {
		usage()
		os.Exit(2)
	}
	opt := bench.Options{Nodes: *nodes, PPN: *ppn, Scheme: *scheme, Policy: cf.Policy}
	backend := *scheme
	if cf.Policy != "" {
		backend = "policy=" + cf.Policy
	}
	sizes := bench.Pow2Sizes(*minS, *maxS)

	nbc := func(measure func(bench.Options, int, int, int) bench.NBCResult, title string) {
		fmt.Printf("# OMB %s, %d nodes x %d PPN, %s (virtual time)\n", title, *nodes, *ppn, backend)
		fmt.Printf("%-10s %14s %14s %14s %9s\n", "size", "pure (us)", "compute (us)", "overall (us)", "overlap")
		for _, size := range sizes {
			r := measure(opt, size, *warmup, *iters)
			fmt.Printf("%-10s %14.2f %14.2f %14.2f %8.1f%%\n",
				bench.SizeLabel(size), r.PureComm.Micros(), r.Compute.Micros(), r.Overall.Micros(), r.Overlap)
		}
	}

	switch name {
	case "latency":
		fmt.Println("# RDMA-write one-way latency (us): host-posted vs DPU-posted")
		fmt.Printf("%-10s %12s %12s\n", "size", "host", "dpu")
		for _, row := range bench.MeasureRDMALatency(bench.Pow2Sizes(2, 8<<10), *iters*5) {
			fmt.Printf("%-10s %12.2f %12.2f\n", bench.SizeLabel(row.Size), row.HostHost.Micros(), row.HostDPU.Micros())
		}
	case "bw":
		fmt.Println("# RDMA-write streaming bandwidth (GB/s): host-posted vs DPU-posted")
		fmt.Printf("%-10s %12s %12s %12s\n", "size", "host", "dpu", "normalized")
		for _, row := range bench.MeasureRDMABandwidth(bench.Pow2Sizes(2, 4<<20), 64, *iters) {
			fmt.Printf("%-10s %12.2f %12.2f %12.2f\n", bench.SizeLabel(row.Size), row.HostHost, row.HostDPU, row.Normalized)
		}
	case "pingpong":
		fmt.Printf("# Nonblocking pingpong (us), %s\n", backend)
		fmt.Printf("%-10s %12s\n", "size", "latency")
		for _, size := range sizes {
			lat := bench.MeasurePingpongNB(bench.Options{Nodes: 2, PPN: 1, Scheme: *scheme, Policy: cf.Policy}, size, *warmup, *iters)
			fmt.Printf("%-10s %12.2f\n", bench.SizeLabel(size), lat.Micros())
		}
	case "tenants":
		pol := cf.Policy
		if pol == "" {
			pol = "gvmi"
		}
		fmt.Printf("# Multi-tenant: foreground Ialltoall vs background bulk jobs, %d nodes x %d PPN/job, fg policy=%s, 1 proxy/DPU\n",
			*nodes, *ppn, pol)
		fmt.Printf("%-8s %14s %14s %14s %14s\n", "bg jobs", "fg p50 (us)", "fg p99 (us)", "goodput GB/s", "makespan (us)")
		results := make([]*tenant.Result, *bgjobs+1)
		bench.Sweep(*bgjobs+1, func(i int, env bench.SweepEnv) {
			cfg := bench.TenantsCase(*nodes, *ppn, i, pol, *iters)
			cfg.Metrics = env.Met
			cfg.Spans = env.Sp
			r, err := tenant.Run(cfg)
			if err != nil {
				panic(fmt.Sprintf("omb: tenants bg=%d: %v", i, err))
			}
			results[i] = r
		})
		for i, r := range results {
			fg := r.Job("fg")
			fmt.Printf("%-8d %14.2f %14.2f %14.2f %14.2f\n",
				i, fg.P50.Micros(), fg.P99.Micros(), r.GoodputGBps(), r.Makespan.Micros())
		}
	case "drift":
		pol := cf.Policy
		if pol == "" {
			pol = "feedback"
		}
		fmt.Printf("# Drift: foreground Ialltoall latency before/after chatty background tenants arrive, %d nodes x %d PPN/job, fg policy=%s, 1 FIFO proxy/DPU\n",
			*nodes, *ppn, pol)
		cfg := bench.DriftCase(*nodes, *ppn, *iters, pol)
		r, err := tenant.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "omb: drift:", err)
			os.Exit(1)
		}
		fg := r.Job("fg")
		pre, post := bench.SplitDrift(fg.Samples, bench.DriftArrival, bench.DriftSettle)
		reprobes := r.Metrics.CounterT("policy", pol, "reason_reprobe", "fg").Value()
		fmt.Printf("%-8s %8s %14s %14s\n", "window", "iters", "p50 (us)", "p99 (us)")
		for _, w := range []struct {
			name string
			ds   []sim.Time
		}{{"pre", pre}, {"post", post}} {
			fmt.Printf("%-8s %8d %14.2f %14.2f\n", w.name, len(w.ds),
				metrics.Percentile(w.ds, 50).Micros(), metrics.Percentile(w.ds, 99).Micros())
		}
		fmt.Printf("re-probe decisions: %d\n", reprobes)
	case "ialltoall":
		nbc(bench.MeasureIalltoall, "Ialltoall")
	case "iallgather":
		nbc(bench.MeasureIallgather, "Iallgather")
	case "ibcast":
		nbc(bench.MeasureIbcast, "Ibcast")
	default:
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", name)
		usage()
		os.Exit(2)
	}
	if err := cf.Finish(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "omb:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: omb <latency|bw|pingpong|ialltoall|iallgather|ibcast|tenants|drift> [flags]
flags: -nodes N -ppn N -scheme Proposed|BluesMPI|IntelMPI -min B -max B -warmup N -iters N
       -policy NAME (offload policy: gvmi|staged|bluesmpi|hostdirect|adaptive|measure|feedback; overrides -scheme)
       -bgjobs N (tenants: largest background bulk-job count swept)
       -metrics PATH -spans PATH -parallel N`)
}
