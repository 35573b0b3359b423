(* Regression: the span-latency bucket bounds used to be a [lazy]
   forced by the first span close.  Two domains closing their first
   spans at the same moment raced on it, and one of them raised
   [CamlinternalLazy.Undefined].  Here two domains each open a span,
   pass a run of shared barriers inside it (so both are running, not
   just spawned), and close it together; both closes must be
   recorded. *)

module Telemetry = Sc_telemetry.Telemetry

(* On one core the spinning domains only alternate at preemption and
   cannot race anyway, so a single round keeps the test quick there. *)
let rounds = if Domain.recommended_domain_count () >= 2 then 2000 else 1

let () =
  let arrived = Atomic.make 0 in
  let barrier round =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 * round do
      Domain.cpu_relax ()
    done
  in
  let worker () =
    Telemetry.with_span ~name:"hdr_race" (fun () ->
        for round = 1 to rounds do
          barrier round
        done)
  in
  let a = Domain.spawn worker in
  let b = Domain.spawn worker in
  Domain.join a;
  Domain.join b;
  match Telemetry.find "span.hdr_race" with
  | Some (Telemetry.Histogram { count = 2; _ }) -> ()
  | _ ->
    prerr_endline "hdr_race: the two span closes were not both recorded";
    exit 1
