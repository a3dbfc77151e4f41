// Package cogrid is a reproduction of "Resource Co-Allocation in
// Computational Grids" (Czajkowski, Foster, Kesselman; HPDC 1999): the
// DUROC co-allocator, with GRAB's atomic transactions as one strategy over
// its mechanisms, the GRAM resource management substrate it runs on, and
// the paper's complete evaluation, all on a deterministic discrete-event
// simulated grid.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-versus-measured results.
// The benchmarks in this package regenerate every figure; cmd/benchgrid
// prints them as text.
package cogrid
