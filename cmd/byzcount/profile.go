package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// profiler carries the -cpuprofile, -memprofile and -trace flags every
// subcommand accepts. A subcommand parses its flags through parse, which
// starts the execution trace and the CPU profile; run defers stop, which
// ends them and writes the allocation profile after the subcommand
// returns.
type profiler struct {
	cpu     *os.File
	trace   *os.File
	memPath string
}

// parse registers the profiling flags on fs, parses args, and starts
// tracing when -trace is set and CPU profiling when -cpuprofile is.
func (p *profiler) parse(fs *flag.FlagSet, args []string) error {
	cpuPath := fs.String("cpuprofile", "", "write a CPU profile of the command to `file`")
	memPath := fs.String("memprofile", "", "write an allocation profile to `file` when the command ends")
	tracePath := fs.String("trace", "", "write a runtime execution trace of the command to `file`")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p.memPath = *memPath
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
		p.trace = f
	}
	if *cpuPath == "" {
		return nil
	}
	f, err := os.Create(*cpuPath)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	p.cpu = f
	return nil
}

// stop finishes whatever parse started and writes the allocation
// profile; it is a no-op when no profiling flag was given.
func (p *profiler) stop() error {
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cpuprofile: %w", err))
		}
	}
	if p.trace != nil {
		trace.Stop()
		if err := p.trace.Close(); err != nil {
			errs = append(errs, fmt.Errorf("trace: %w", err))
		}
	}
	if p.memPath != "" {
		if err := writeAllocProfile(p.memPath); err != nil {
			errs = append(errs, fmt.Errorf("memprofile: %w", err))
		}
	}
	return errors.Join(errs...)
}

// writeAllocProfile writes the "allocs" profile, as go test -memprofile
// does: every sampled allocation since the program started, plus the
// live heap as of a fresh GC.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
