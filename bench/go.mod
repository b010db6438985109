module brainprint/bench

go 1.24

require brainprint v0.0.0

replace brainprint => ../
