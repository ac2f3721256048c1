// The benchmark is a module of its own so the product's `go build ./...`
// and `go test ./...` never depend on it; the module path sits under
// quaestor/ so it may import the product's internal packages.
module quaestor/benchmark

go 1.24

require quaestor v0.0.0

replace quaestor => ../
