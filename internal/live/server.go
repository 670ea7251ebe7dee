package live

import "repro/internal/verify"

// Server bundles a Driver and its Gateway: one call boots a scenario
// into a serving system.
type Server struct {
	Driver  *Driver
	Gateway *Gateway
}

// Serve builds the scenario, starts the wall-clock driver and opens the
// gateway on addr ("127.0.0.1:0" picks a free port). With cfg.Oracle
// set, the consistency oracle audits the live run online.
func Serve(cfg Config, addr string) (*Server, error) {
	d, err := New(cfg)
	if err != nil {
		return nil, err
	}
	d.Start()
	gw, err := OpenGateway(d, addr)
	if err != nil {
		d.Stop()
		return nil, err
	}
	return &Server{Driver: d, Gateway: gw}, nil
}

// Addr reports the gateway's HTTP address.
func (s *Server) Addr() string { return s.Gateway.Addr() }

// Close shuts the gateway and driver down.
func (s *Server) Close() { s.Gateway.Close() }

// OracleReport reads the attached oracle's report; ok is false when no
// oracle is attached. Readable only while the server runs (it goes
// through the event loop) or after Close (the loop has quiesced and the
// report is read directly).
func (s *Server) OracleReport() (verify.OracleReport, bool) {
	o := s.Driver.oracle
	if o == nil {
		return verify.OracleReport{}, false
	}
	var rep verify.OracleReport
	if err := s.Driver.Call(func() { rep = o.Report() }); err != nil {
		// Driver stopped: the loop is gone, so single-threaded access is
		// safe again.
		rep = o.Report()
	}
	return rep, true
}
