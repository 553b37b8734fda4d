// The benchmark is a module of its own so the root module's build and
// tests never depend on it; the nodesentry/ path prefix is what lets it
// import the daemon's internal packages.
module nodesentry/bench

go 1.22

require nodesentry v0.0.0

replace nodesentry => ../
