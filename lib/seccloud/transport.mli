(** A fault-injectable request/response transport for {!Wire}
    messages, with a bounded-retry policy over a deterministic
    simulated clock.

    Protocols II-IV are specified over an implicit perfect channel,
    but the §III-B threat model assumes servers that drop, delay and
    tamper; this module is the message layer that makes the audit
    loop survive such a channel.  Every fault is drawn from an
    injected {!Sc_hash.Drbg}, so a lossy run reproduces
    byte-for-byte.

    A call that exhausts its retries returns a typed {!error} rather
    than raising, which the endpoints translate into the audit blame
    path: unresponsive servers are flagged like failed
    verifications.

    Telemetry: [transport.rpc], [transport.attempts],
    [transport.retry], [transport.timeout],
    [transport.tamper_detected], [transport.mismatch], the injected
    fault counters [transport.fault.*], and a [transport.rpc] span
    per logical call. *)

type faults = {
  drop : float;  (** per-direction probability a message is lost *)
  duplicate : float;
      (** probability a response is also queued a second time *)
  reorder : float;
      (** probability a queued (duplicated/delayed) response is
          delivered instead of the current one *)
  tamper : float;  (** per-direction probability of a single bit flip *)
  delay_s : float;  (** extra one-way latency per delivery, seconds *)
}

val perfect : faults
(** No faults: every call behaves like the old direct channel. *)

val lossy :
  ?drop:float ->
  ?duplicate:float ->
  ?reorder:float ->
  ?tamper:float ->
  ?delay_s:float ->
  unit ->
  faults
(** All rates default to 0.  @raise Invalid_argument on a rate
    outside [0, 1] or a negative delay. *)

module Retry : sig
  type policy = {
    max_attempts : int;  (** total attempts, including the first *)
    base_backoff_s : float;
    backoff_factor : float;  (** exponential backoff multiplier *)
    attempt_timeout_s : float;
        (** simulated time charged to a lost attempt *)
  }

  val default : policy
  (** 5 attempts, 50 ms base backoff doubling per retry, 1 s
      per-attempt timeout. *)

  val backoff_delay : policy -> attempt:int -> float
  (** Backoff slept before retry number [attempt] (1-based):
      [base · factor^(attempt-1)].
      @raise Invalid_argument if [attempt < 1]. *)
end

type error =
  | Timeout  (** retries exhausted with no usable response *)
  | Tampered
      (** retries exhausted and the last failure was detectable
          in-flight corruption *)

val error_to_string : error -> string

type t

val create :
  ?faults:faults ->
  ?policy:Retry.policy ->
  ?drbg:Sc_hash.Drbg.t ->
  ?charge:(bytes:int -> float) ->
  ?now:float ->
  ?peer:string ->
  public:Sc_ibc.Setup.public ->
  handler:(now:float -> string -> string) ->
  unit ->
  t
(** [handler] is the remote side: encoded request bytes in, encoded
    reply bytes out (e.g. {!Endpoint.Server.handle} partially
    applied).  [charge ~bytes] accounts a delivery to an external
    cost model (e.g. {!Sc_sim.Network.record_transfer}) and returns
    its transfer time, which advances the simulated clock; it is
    called once per delivered direction, including retries and
    duplicates, so the network model sees exactly what was sent.
    [now] seeds the clock (default 0), [peer] names the far end for
    blame attribution (default ["peer"]). *)

val peer : t -> string

val injected_tampers : t -> int
(** Bit flips this channel instance has injected so far (fault-layer
    ground truth).  A caller that snapshots this around a protocol
    round can tell "verification failed because the channel mangled a
    message that still decoded" apart from a genuine crypto failure —
    per instance, so concurrent channels on other shards never bleed
    into the classification the way the global
    [transport.fault.tamper] counter would. *)

val now : t -> float
(** The simulated clock: advances by charge-reported transfer times,
    injected delays, per-attempt timeouts and retry backoffs. *)

val set_now : t -> float -> unit
(** Re-align the clock with an external event clock (the simulator
    does this when a scheduled event fires).
    @raise Invalid_argument if the clock would move backwards. *)

val call : t -> expect:string -> Wire.msg -> (Wire.msg, error) result
(** One logical request/response round: encode, deliver through the
    fault layer, decode, retry per policy.  [expect] is the
    {!Wire.kind_name} of the wanted reply; [Ack] replies are always
    delivered too (servers answer errors with [Ack]), {e except} an
    [Ack] carrying a server-side decode failure, which means the
    request was mangled in flight and is retried as tampering.  A
    reply of any other kind (a stale, reordered response) is
    discarded and the attempt retried.

    @raise Invalid_argument if [expect] is not a member of
    {!Wire.kinds}. *)
