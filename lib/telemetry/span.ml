(* Nested protocol spans over the monotone clock.  Every finished span
   feeds a latency histogram [span.<name>] (microseconds, HDR log
   buckets) in the registry; when a trace sink is installed it also
   emits one JSONL object.  The span stack is *per-domain*
   (Domain.DLS): a span opened on a pool worker nests under that
   worker's own spans, never under another domain's, and ids are drawn
   from one atomic sequence so a merged trace stays unambiguous.  Sink
   emission is serialized by a mutex so concurrent JSONL lines never
   interleave.

   Distributed tracing: each span carries a 128-bit trace id.  A
   nested span inherits its parent's; a root span (empty local stack)
   adopts the ambient remote context installed by [Trace_context.
   with_remote] — both trace id and parent span id — so spans opened
   on a worker domain or behind a transport hop join the originating
   request's trace.  Only a root span with no ambient context mints a
   fresh trace id.

   A span whose thunk raises is tagged [error=1] in the trace line,
   bumps the [span.<name>.errors] counter, and re-raises — failed
   rounds are visible in traces instead of passing as successes. *)

type active = {
  id : int;
  name : string;
  parent : int option;
  depth : int;
  trace : string; (* raw 16-byte trace id *)
  start_ns : int64;
  mutable attrs : (string * string) list;
}

let next_id = Atomic.make 0
let open_count = Atomic.make 0
let stack_key = Domain.DLS.new_key (fun () -> ref ([] : active list))
let stack () = Domain.DLS.get stack_key
let sink : (string -> unit) option Atomic.t = Atomic.make None
let sink_lock = Mutex.create () (* serializes emission, not the pointer *)
let set_sink f = Atomic.set sink f
let open_spans () = Atomic.get open_count

let emit_line sp dur_ns ~error =
  match Atomic.get sink with
  | None -> ()
  | Some _ ->
    let attrs = if error then sp.attrs @ [ "error", "1" ] else sp.attrs in
    let fields =
      [
        "name", Json.str sp.name;
        "id", Json.int sp.id;
        ( "parent",
          match sp.parent with None -> "null" | Some p -> Json.int p );
        "depth", Json.int sp.depth;
        "trace", Json.str (Trace_context.to_hex sp.trace);
        "start_us", Json.float (Clock.ns_to_us sp.start_ns);
        "dur_us", Json.float (Clock.ns_to_us dur_ns);
      ]
      @
      if attrs = [] then []
      else
        [ ( "attrs",
            Json.obj (List.map (fun (k, v) -> k, Json.str v) attrs) ) ]
    in
    let line = Json.obj fields in
    Mutex.lock sink_lock;
    (match Atomic.get sink with None -> () | Some emit -> emit line);
    Mutex.unlock sink_lock

let close stack sp ~error =
  (match !stack with
  | top :: rest when top.id = sp.id -> stack := rest
  | _ -> (* unbalanced exit via exception deeper in the stack *) ());
  Atomic.decr open_count;
  let dur = Clock.elapsed_ns sp.start_ns in
  Registry.observe (Registry.histogram ("span." ^ sp.name)) (Clock.ns_to_us dur);
  if error then
    Registry.incr (Registry.counter ("span." ^ sp.name ^ ".errors"));
  emit_line sp dur ~error

let with_span ?(attrs = []) ~name f =
  let id = Atomic.fetch_and_add next_id 1 + 1 in
  let stack = stack () in
  let parent, depth, trace =
    match !stack with
    | top :: _ -> Some top.id, top.depth + 1, top.trace
    | [] -> (
      match Trace_context.current () with
      | Some ctx -> Some ctx.Trace_context.span, 0, ctx.Trace_context.trace
      | None -> None, 0, Trace_context.fresh_trace ())
  in
  let sp =
    { id; name; parent; depth; trace; start_ns = Clock.now_ns (); attrs }
  in
  Atomic.incr open_count;
  stack := sp :: !stack;
  match f () with
  | v ->
    close stack sp ~error:false;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close stack sp ~error:true;
    Printexc.raise_with_backtrace e bt

let current_depth () = List.length !(stack ())

let current_context () =
  match !(stack ()) with
  | top :: _ -> Some { Trace_context.trace = top.trace; span = top.id }
  | [] -> Trace_context.current ()

let add_attr k v =
  match !(stack ()) with
  | top :: _ -> top.attrs <- List.remove_assoc k top.attrs @ [ k, v ]
  | [] -> ()

let with_trace_channel oc f =
  let prev = Atomic.get sink in
  set_sink (Some (fun line -> output_string oc (line ^ "\n")));
  Fun.protect ~finally:(fun () -> set_sink prev) f

let with_trace_file path f =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> with_trace_channel oc f)
