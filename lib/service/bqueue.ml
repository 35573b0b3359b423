type 'a t = { q : 'a Queue.t; capacity : int }

let create ~capacity =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity < 1";
  { q = Queue.create (); capacity }

let length t = Queue.length t.q
let is_empty t = Queue.is_empty t.q

let push t x =
  if Queue.length t.q >= t.capacity then false
  else begin
    Queue.push x t.q;
    true
  end

let pop t = Queue.take_opt t.q
