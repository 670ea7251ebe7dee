// Package repro reproduces "On Consistency Maintenance in Service
// Discovery" (V. Sundramoorthy, P.H. Hartel, J. Scholten; IPPS 2006) as a
// production-quality Go library.
//
// The API is the internal/ packages (discrete-event kernel, simulated LAN
// with the paper's UDP and TCP failure models, the FRODO, Jini and UPnP
// protocol models, the Update Metrics, the experiment harness, the
// consistency oracle and the live runtime), run by the cmd/* binaries
// and the examples/ programs. DESIGN.md documents the system inventory
// and the scenario engine (topology spec, churn model, streaming
// aggregation); EXPERIMENTS.md keeps the paper-vs-measured record and
// the performance trajectory.
//
// cmd/sdsweep regenerates every table and figure of the paper's
// evaluation, including the scale-out scenarios (-users, -managers,
// -churn); cmd/sdsim runs and traces one scenario. The benchmarks in
// bench_test.go time the ablations; `go run ./benchmark` is the
// end-to-end benchmark.
package repro
