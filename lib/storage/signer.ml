module Setup = Sc_ibc.Setup
module Dvs = Sc_ibc.Dvs

type signed_block = {
  block : Block.t;
  u : Sc_ec.Curve.point;
  sigma_cs : Sc_pairing.Tate.gt;
  sigma_da : Sc_pairing.Tate.gt;
}

type upload = { file : string; owner : string; blocks : signed_block array }

let sign_file pub (key : Setup.identity_key) ~bytes_source ~cs_id ~da_id ~file
    payloads =
  let bases =
    Dvs.base pub key ~verifier:cs_id, Dvs.base pub key ~verifier:da_id
  in
  let sign_one index data =
    let block = { Block.file; index; data } in
    let u, sigma_cs, sigma_da =
      Dvs.sign pub key ~bytes_source bases (Block.signing_message block)
    in
    { block; u; sigma_cs; sigma_da }
  in
  { file; owner = key.Setup.id; blocks = Array.of_list (List.mapi sign_one payloads) }

let dvs_for role sb =
  match role with
  | `Cs -> { Dvs.u = sb.u; sigma = sb.sigma_cs }
  | `Da -> { Dvs.u = sb.u; sigma = sb.sigma_da }

let agg_entry role ~owner claimed sb =
  {
    Sc_ibc.Agg.signer = owner;
    msg = Block.signing_message claimed;
    dvs = dvs_for role sb;
  }

let verify_block pub ~verifier_key ~role ~q_id claimed sb =
  Dvs.verify pub ~verifier_key ~q_id
    ~msg:(Block.signing_message claimed)
    (dvs_for role sb)
