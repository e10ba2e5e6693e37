module prompt/bench

go 1.22

require prompt v0.0.0

replace prompt => ../
