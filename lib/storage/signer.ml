module Setup = Sc_ibc.Setup
module Dvs = Sc_ibc.Dvs

type signed_block = {
  block : Block.t;
  u : Sc_ec.Curve.point;
  sigma_cs : Sc_pairing.Tate.gt;
  sigma_da : Sc_pairing.Tate.gt;
}

type upload = { file : string; owner : string; blocks : signed_block array }

type bases = Dvs.base * Dvs.base

let bases pub key ~cs_id ~da_id =
  Dvs.base pub key ~verifier:cs_id, Dvs.base pub key ~verifier:da_id

let sign_file pub (key : Setup.identity_key) ~bytes_source ~bases ~file
    payloads =
  Sc_telemetry.Telemetry.with_span ~name:"signer.sign_blocks"
    ~attrs:[ "blocks", string_of_int (List.length payloads) ]
  @@ fun () ->
  let blocks = List.mapi (fun index data -> { Block.file; index; data }) payloads in
  let signed =
    Dvs.sign_batch pub key ~bytes_source bases
      (List.map Block.signing_message blocks)
  in
  {
    file;
    owner = key.Setup.id;
    blocks =
      Array.of_list
        (List.map2
           (fun block (u, sigma_cs, sigma_da) -> { block; u; sigma_cs; sigma_da })
           blocks signed);
  }

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
