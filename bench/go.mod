module fmi/bench

go 1.22

require fmi v0.0.0

replace fmi => ../
