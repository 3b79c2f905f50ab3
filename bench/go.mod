module idl/bench

go 1.22

require idl v0.0.0

replace idl => ../
