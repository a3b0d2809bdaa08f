module predtop/bench

go 1.22

require predtop v0.0.0

replace predtop => ../
