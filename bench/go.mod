module d2dhb/bench

go 1.22

require d2dhb v0.0.0

replace d2dhb => ../
