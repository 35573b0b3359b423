type config = {
  latency_s : float;
  bandwidth_bytes_per_s : float;
  cost_per_byte : float;
}

type t = {
  config : config;
  mutable bytes : int;
  mutable cost : float;
  mutable count : int;
}

let default_config =
  { latency_s = 0.020; bandwidth_bytes_per_s = 100e6; cost_per_byte = 1e-8 }

let create config = { config; bytes = 0; cost = 0.0; count = 0 }

let transfer_time t ~bytes =
  t.config.latency_s +. (float_of_int bytes /. t.config.bandwidth_bytes_per_s)

let transfer_cost t ~bytes = float_of_int bytes *. t.config.cost_per_byte

let record_transfer t ~bytes =
  t.bytes <- t.bytes + bytes;
  t.cost <- t.cost +. transfer_cost t ~bytes;
  t.count <- t.count + 1;
  transfer_time t ~bytes

let total_bytes t = t.bytes
let transfers t = t.count

let reset t =
  t.bytes <- 0;
  t.cost <- 0.0;
  t.count <- 0
