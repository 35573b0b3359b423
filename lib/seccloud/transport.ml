module Telemetry = Sc_telemetry.Telemetry
module Labels = Sc_telemetry.Labels

type faults = {
  drop : float;
  duplicate : float;
  reorder : float;
  tamper : float;
  delay_s : float;
}

let perfect =
  { drop = 0.0; duplicate = 0.0; reorder = 0.0; tamper = 0.0; delay_s = 0.0 }

let lossy ?(drop = 0.0) ?(duplicate = 0.0) ?(reorder = 0.0) ?(tamper = 0.0)
    ?(delay_s = 0.0) () =
  let rate name v =
    if v < 0.0 || v > 1.0 || Float.is_nan v then
      invalid_arg (Printf.sprintf "Transport.lossy: %s outside [0, 1]" name)
  in
  rate "drop" drop;
  rate "duplicate" duplicate;
  rate "reorder" reorder;
  rate "tamper" tamper;
  if delay_s < 0.0 then invalid_arg "Transport.lossy: negative delay";
  { drop; duplicate; reorder; tamper; delay_s }

module Retry = struct
  type policy = {
    max_attempts : int;
    base_backoff_s : float;
    backoff_factor : float;
    attempt_timeout_s : float;
  }

  let default =
    {
      max_attempts = 5;
      base_backoff_s = 0.05;
      backoff_factor = 2.0;
      attempt_timeout_s = 1.0;
    }

  let backoff_delay p ~attempt =
    if attempt < 1 then invalid_arg "Transport.Retry.backoff_delay: attempt < 1";
    p.base_backoff_s *. (p.backoff_factor ** float_of_int (attempt - 1))
end

type error = Timeout | Tampered

let error_to_string = function Timeout -> "timeout" | Tampered -> "tampered"

type t = {
  faults : faults;
  policy : Retry.policy;
  drbg : Sc_hash.Drbg.t;
  charge : bytes:int -> float;
  pub : Sc_ibc.Setup.public;
  handler : now:float -> string -> string;
  peer_name : string;
  stale : string Queue.t; (* responses held back by duplication/reordering *)
  mutable clock : float;
  mutable tampers : int; (* bit flips this instance injected *)
}

let c_rpc = Telemetry.counter "transport.rpc"
let c_attempts = Telemetry.counter "transport.attempts"
let c_retry = Telemetry.counter "transport.retry"
let c_timeout = Telemetry.counter "transport.timeout"
let c_tamper_detected = Telemetry.counter "transport.tamper_detected"
let c_mismatch = Telemetry.counter "transport.mismatch"
let c_fault_drop = Telemetry.counter "transport.fault.drop"
let c_fault_dup = Telemetry.counter "transport.fault.duplicate"
let c_fault_reorder = Telemetry.counter "transport.fault.reorder"
let c_fault_tamper = Telemetry.counter "transport.fault.tamper"

(* RPC outcomes by label — "ok" or the typed error name. *)
let v_outcome = Labels.counter_vec ~label:"outcome" "transport.rpc.outcome"

let create ?(faults = perfect) ?(policy = Retry.default) ?drbg
    ?(charge = fun ~bytes:_ -> 0.0) ?(now = 0.0) ?(peer = "peer") ~public
    ~handler () =
  if policy.Retry.max_attempts < 1 then
    invalid_arg "Transport.create: max_attempts < 1";
  let drbg =
    match drbg with
    | Some d -> d
    | None -> Sc_hash.Drbg.create ~seed:("transport:" ^ peer)
  in
  {
    faults;
    policy;
    drbg;
    charge;
    pub = public;
    handler;
    peer_name = peer;
    stale = Queue.create ();
    clock = now;
    tampers = 0;
  }

let peer t = t.peer_name
let now t = t.clock
let injected_tampers t = t.tampers

let set_now t v =
  if v < t.clock then invalid_arg "Transport.set_now: clock moving backwards";
  t.clock <- v

let flip t p = p > 0.0 && Sc_hash.Drbg.float t.drbg < p

let tamper_bytes t data =
  if String.length data = 0 then data
  else begin
    Telemetry.incr c_fault_tamper;
    t.tampers <- t.tampers + 1;
    let i = Sc_hash.Drbg.uniform_int t.drbg (String.length data) in
    let bit = 1 lsl Sc_hash.Drbg.uniform_int t.drbg 8 in
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor bit) else c)
      data
  end

(* One direction of the channel: the message is dropped, possibly
   tampered, and charged to the external cost model only when it is
   actually on the wire. *)
let deliver t data =
  if flip t t.faults.drop then begin
    Telemetry.incr c_fault_drop;
    None
  end
  else begin
    let data = if flip t t.faults.tamper then tamper_bytes t data else data in
    t.clock <- t.clock +. t.faults.delay_s +. t.charge ~bytes:(String.length data);
    Some data
  end

(* One attempt: request out, handler, response back — any direction
   may lose or corrupt the bytes, and the response may be displaced
   by a stale (duplicated, reordered) one.  Each attempt runs in its
   own [transport.attempt] child span whose context rides the
   envelope, so server-side spans attach to the attempt that carried
   them and retries are distinguishable in the trace. *)
let attempt t ~nth msg =
  Telemetry.with_span ~name:"transport.attempt"
    ~attrs:[ "attempt", string_of_int nth ]
  @@ fun () ->
  let req =
    Envelope.wrap ?ctx:(Telemetry.current_context ()) (Wire.encode t.pub msg)
  in
  match deliver t req with
  | None -> None
  | Some req_bytes ->
    let resp = t.handler ~now:t.clock req_bytes in
    if flip t t.faults.duplicate then begin
      Telemetry.incr c_fault_dup;
      Queue.push resp t.stale
    end;
    let resp =
      if flip t t.faults.reorder && not (Queue.is_empty t.stale) then begin
        Telemetry.incr c_fault_reorder;
        Queue.push resp t.stale;
        Queue.pop t.stale
      end
      else resp
    in
    deliver t resp

(* The server answers a request it could not parse with this Ack; at
   the client it is evidence the *request* was mangled in flight. *)
let is_request_mangled detail =
  String.length detail >= 7 && String.sub detail 0 7 = "decode:"

let call_gen t ~accept msg =
  Telemetry.incr c_rpc;
  Telemetry.with_span ~name:"transport.rpc"
    ~attrs:[ "kind", Wire.kind_name msg; "peer", t.peer_name ]
  @@ fun () ->
  let rec go k last_err =
    if k > t.policy.Retry.max_attempts then begin
      if last_err = Timeout then Telemetry.incr c_timeout;
      Error last_err
    end
    else begin
      if k > 1 then begin
        Telemetry.incr c_retry;
        t.clock <- t.clock +. Retry.backoff_delay t.policy ~attempt:(k - 1)
      end;
      Telemetry.incr c_attempts;
      match attempt t ~nth:k msg with
      | None ->
        (* Nothing arrived: wait out the attempt timeout and retry. *)
        t.clock <- t.clock +. t.policy.Retry.attempt_timeout_s;
        go (k + 1) last_err
      | Some resp_bytes -> (
        (* The response context (the server's own span) is not adopted
           client-side — the client's rpc span is already the local
           parent; unwrap only strips the framing. *)
        match
          let _ctx, payload = Envelope.unwrap resp_bytes in
          Wire.decode t.pub payload
        with
        | exception Wire.Decode_error _ ->
          Telemetry.incr c_tamper_detected;
          go (k + 1) Tampered
        | Wire.Ack { ok = false; detail } when is_request_mangled detail ->
          Telemetry.incr c_tamper_detected;
          go (k + 1) Tampered
        | reply ->
          if accept (Wire.kind_name reply) then Ok reply
          else begin
            (* A stale response from an earlier attempt: drop it. *)
            Telemetry.incr c_mismatch;
            go (k + 1) last_err
          end)
    end
  in
  let result = go 1 Timeout in
  let outcome =
    match result with Ok _ -> "ok" | Error e -> error_to_string e
  in
  Labels.incr v_outcome outcome;
  Telemetry.add_attr "outcome" outcome;
  result

let call t ~expect msg =
  if not (List.mem expect Wire.kinds) then
    invalid_arg (Printf.sprintf "Transport.call: unknown kind %S" expect);
  call_gen t ~accept:(fun kind -> kind = expect || kind = "ack") msg
