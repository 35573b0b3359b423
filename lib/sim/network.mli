(** A simple latency + bandwidth network cost model with byte
    accounting.  Transfer time = latency + bytes / bandwidth; every
    transfer is also charged a monetary cost per byte, the C_trans of
    the paper's Theorem 3. *)

type t

type config = {
  latency_s : float; (* one-way latency, seconds *)
  bandwidth_bytes_per_s : float;
  cost_per_byte : float; (* currency units *)
}

val default_config : config
(** 20 ms latency, 100 MB/s, 1e-8 per byte. *)

val create : config -> t

val transfer_cost : t -> bytes:int -> float

val record_transfer : t -> bytes:int -> float
(** Accounts the transfer and returns its duration. *)

val total_bytes : t -> int
