package rig

import (
	"fmt"
	"io"
	"os"

	"ucudnn/internal/core"
	"ucudnn/internal/debugserver"
	"ucudnn/internal/faults"
	"ucudnn/internal/flight"
	"ucudnn/internal/obs"
	"ucudnn/internal/prof"
)

// Telemetry is the telemetry half of a CLI's flags.
type Telemetry struct {
	Faults     string // fault-injection schedule to arm
	Metrics    string // metrics destination; a registry exists when set
	DebugAddr  string // serve /debug/ucudnn/ here
	Profile    bool   // run the phase profiler
	ProfileOut string // write the profile report here at exit
}

// Session is the telemetry around one CLI invocation, from Start to
// Finish.
type Session struct {
	// Registry backs -metrics and the debug server; nil when neither is
	// set.
	Registry *obs.Registry

	stderr     io.Writer
	srv        *debugserver.Server
	freg       *faults.Registry
	profileOut string
}

// Start installs the SIGQUIT flight-recorder dump, creates the registry,
// starts the debug server, turns the profiler on and arms the fault
// schedule. On error nothing is left armed or serving.
func Start(t Telemetry) (*Session, error) {
	flight.DumpOnSignal()
	s := &Session{stderr: os.Stderr, profileOut: t.ProfileOut}
	var err error
	if t.Faults != "" {
		if s.freg, err = faults.Parse(t.Faults); err != nil {
			return nil, err
		}
	}
	if t.Metrics != "" || t.DebugAddr != "" {
		s.Registry = obs.NewRegistry()
	}
	if t.DebugAddr != "" {
		if s.srv, err = debugserver.Start(t.DebugAddr, s.Registry); err != nil {
			return nil, err
		}
		fmt.Fprintf(s.stderr, "debug server on http://%s/debug/ucudnn/\n", s.srv.Addr())
	}
	if t.Profile {
		prof.Enable()
		prof.SetMetrics(s.Registry)
	}
	if s.freg != nil {
		faults.Install(s.freg)
	}
	return s, nil
}

// Finish ends the session whatever the run's outcome: after a
// successful run it writes the profile report, then it turns the
// profiler off, disarms the faults and prints their fired shots — so a
// failure under injection is reproducible from the output alone — and
// stops the debug server. It returns runErr, or else the report's
// write error.
func (s *Session) Finish(runErr error) error {
	err := runErr
	if err == nil {
		err = core.WriteProfileFile(s.profileOut)
	}
	prof.Disable()
	if s.freg != nil {
		faults.Install(nil)
		fmt.Fprintf(s.stderr, "faults: schedule %q fired [%s]\n", s.freg.String(), s.freg.ShotLog())
	}
	if s.srv != nil {
		s.srv.Close()
	}
	return err
}
