(** A simple latency + bandwidth network model with byte accounting.
    Transfer time = latency + bytes / bandwidth; the bytes it counts
    are the C_trans of the paper's Theorem 3. *)

type t

type config = {
  latency_s : float; (* one-way latency, seconds *)
  bandwidth_bytes_per_s : float;
}

val default_config : config
(** 20 ms latency, 100 MB/s. *)

val create : config -> t

val record_transfer : t -> bytes:int -> float
(** Accounts the transfer and returns its duration. *)

val total_bytes : t -> int
