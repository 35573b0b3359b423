(* HDR-style log-bucketed histogram bounds.  Buckets grow
   geometrically with ratio (1 + relative_error)^2, so the geometric
   midpoint of any bucket is within [relative_error] of every value
   the bucket can hold — quantiles read back from the histogram are
   within ~5% of the exact sample quantile, at any latency scale, for
   a fixed ~240 buckets.  The observe fast path is unchanged
   (Registry.observe: binary search + locked increment, no
   allocation). *)

let relative_error = 0.05

(* Default span range: 10 ns .. ~100 s, in microseconds. *)
let min_us = 1e-2
let max_us = 1e8

let buckets ?(min_value = min_us) ?(max_value = max_us)
    ?(relative_error = relative_error) () =
  if min_value <= 0.0 || max_value <= min_value then
    invalid_arg "Hdr.buckets: need 0 < min_value < max_value";
  if relative_error <= 0.0 then invalid_arg "Hdr.buckets: relative_error <= 0";
  let r = (1.0 +. relative_error) *. (1.0 +. relative_error) in
  let n =
    1 + int_of_float (Float.ceil (Float.log (max_value /. min_value) /. Float.log r))
  in
  Array.init n (fun i -> min_value *. (r ** float_of_int i))

(* Computed at module initialisation, not lazily: forcing a [lazy]
   from two domains at once raises [CamlinternalLazy.Undefined] on
   OCaml 5, and the first span closes can race exactly so. *)
let default_bounds_ = buckets ()
let default_bounds () = default_bounds_
