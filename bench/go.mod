// The benchmark is a module of its own inside the repository, so that the
// repository's build and tests do not depend on it. Its import path lies
// under the root module's, which lets it import the layers it measures
// (repro/internal/...).
module repro/bench

go 1.23

require repro v0.0.0

replace repro => ../
