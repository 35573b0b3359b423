type config = {
  latency_s : float;
  bandwidth_bytes_per_s : float;
}

type t = {
  config : config;
  mutable bytes : int;
}

let default_config = { latency_s = 0.020; bandwidth_bytes_per_s = 100e6 }

let create config = { config; bytes = 0 }

let transfer_time t ~bytes =
  t.config.latency_s +. (float_of_int bytes /. t.config.bandwidth_bytes_per_s)

let record_transfer t ~bytes =
  t.bytes <- t.bytes + bytes;
  transfer_time t ~bytes

let total_bytes t = t.bytes
