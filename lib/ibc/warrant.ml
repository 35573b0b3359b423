type t = {
  delegator : string;
  delegatee : string;
  issued_at : float;
  expires_at : float;
  scope : string;
}

type signed = { warrant : t; signature : Ibs.t }

(* Canonical framing: delegator / delegatee / scope are free-form
   strings, so the old "warrant|%s|%s|...|%s" format was forgeable by
   delimiter injection (a delegatee named "b|0|0|s" shifting every
   later field). *)
let encode w =
  Sc_hash.Encode.canonical
    [
      "warrant";
      w.delegator;
      w.delegatee;
      Printf.sprintf "%.6f" w.issued_at;
      Printf.sprintf "%.6f" w.expires_at;
      w.scope;
    ]

let issue pub (key : Setup.identity_key) ~bytes_source ~delegatee ~now ~lifetime
    ~scope =
  let warrant =
    {
      delegator = key.Setup.id;
      delegatee;
      issued_at = now;
      expires_at = now +. lifetime;
      scope;
    }
  in
  { warrant; signature = Ibs.sign pub key ~bytes_source (encode warrant) }

let expired ~now w = now > w.expires_at || now < w.issued_at

(* Expiry first: a memo remembers signatures, never time. *)
let verify ?memo pub ~now { warrant; signature } =
  (not (expired ~now warrant))
  && Ibs.verify ?memo pub ~signer:warrant.delegator ~msg:(encode warrant)
       signature
