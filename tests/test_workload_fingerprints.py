"""Golden fingerprints of the built-in synthetic workloads.

Result-cache keys, fabric dedup keys, corpus digests and the fingerprint
in every ``.ctrc`` index are all the :class:`TraceHasher` digest of a
trace's content, so the generator must keep producing the same
references for a given workload, seed and length, whatever form it
emits them in.  The digests below were computed when the generator still
built one ``TraceRecord`` per reference; it now writes packed columns,
and each of its outputs — the materialized trace, the column batches and
a streamed ``.ctrc`` — must hash to the same values.  40,000 references
cross the 16,384-reference batch boundary twice.
"""

import pytest

from repro.store import write_stream
from repro.trace.fingerprint import TraceHasher, fingerprint_trace
from repro.workloads.registry import make_trace, stream_trace

#: ``(workload, seed, length) -> sha256``; a seed of None is the
#: workload's default.
GOLDEN = {
    ("pops", None, 1): "b7422691b9dd48e480fb311dad8dd5214005c43b81566efa325ad73200ac3e7f",
    ("pops", None, 997): "c8857f18df18c1345725be2739b834478db33658ae27eb553cd036cb7c9446db",
    ("pops", None, 5000): "60e520976c754bce85e8dc0409e1795dbe998a90e8e930a82484ed6432c9e50e",
    ("pops", None, 20000): "f6b4c776d01d3c2ef36daa51c690949a62894143e19951fcdf29b2f23f73c704",
    ("pops", None, 40000): "e0ff88ad33778dd33b7bbbda16f2566b39fd4b10de0259f1c766a23ba7b96335",
    ("pops", 7, 1): "6721baace57cd5d0d0c873dfd7a4fc1f322755e1b42b9219efccb43aa2fb160c",
    ("pops", 7, 997): "f307f17d9bbf896d3321c1190f90202c7c35cd739a4458ed3716e1cda009243f",
    ("pops", 7, 5000): "1965c24cfffeb9bc48992be25e4c6850731240af8bd043f6600a5752a677811a",
    ("pops", 7, 20000): "cdf7c0c5daa42c675e09cf25ae3a1f97d2600dfa6e7f1c3750c43e68c77b28cb",
    ("pops", 7, 40000): "7a7a5fefa29e81c42647af690251a481b015eaa7ff795473e57a06b1fb8ad495",
    ("pops", 12345, 1): "6721baace57cd5d0d0c873dfd7a4fc1f322755e1b42b9219efccb43aa2fb160c",
    ("pops", 12345, 997): "8be5a287b7ac3a6f2e99f3b489498cf3bdd29e5fae1b4b86a42ce613c33d015b",
    ("pops", 12345, 5000): "2e7c6fd99297cf5faafd5b38b34d386a5a35d3284532e2cf70a4c35bd548d191",
    ("pops", 12345, 20000): "c368a1cc549b3fcc717cd38ae097236ab1ddc79aa0133508427f58ae7da38f32",
    ("pops", 12345, 40000): "fe8bc107ddbf868ba855289bb95393371c6ff8afe45516192661ffb3b3dae32e",
    ("thor", None, 1): "b7422691b9dd48e480fb311dad8dd5214005c43b81566efa325ad73200ac3e7f",
    ("thor", None, 997): "a1a184b0e9a6978510cdf86e24ede353e51a7be898bfcb2950689a816da4b8f5",
    ("thor", None, 5000): "1559c7651ef49b42019fca0541ef425ea4481ffbdb4fd261c6be5aad9e0bf5e8",
    ("thor", None, 20000): "a80dbe2338c8f9bf8df7b251d655045b91615e553bf591d82fcf9340207c97ec",
    ("thor", None, 40000): "ef737c24d0ac6700d56086b041e168fe0a6fd5d4439d8f03798b6796aa55fee2",
    ("thor", 7, 1): "6721baace57cd5d0d0c873dfd7a4fc1f322755e1b42b9219efccb43aa2fb160c",
    ("thor", 7, 997): "11acf6cd2d738e48cf44e5140c578220bc34f0ec8e69acfa03dba427317cc372",
    ("thor", 7, 5000): "b5cf8338387fe7dd16be67d8d6601aa9bb79a27908de0e5bc17fc543e3686805",
    ("thor", 7, 20000): "c811c570e0c3b091128b9238a6dc2f500e477e3c56b599086c4133d0ae6e9ff1",
    ("thor", 7, 40000): "fa11704fd88a7010f6ddb1c246999715a5a59bbb9f5846daabcce4cae258bc58",
    ("thor", 12345, 1): "050ee79ba74812763f682a4e49aa0f8acadb5d2563e4b4e13fcf9e59765cc4f2",
    ("thor", 12345, 997): "c9c8dc05596b9da46d86f0a57d5f769dc393061f6bed313c3a935876f93bc0b5",
    ("thor", 12345, 5000): "12281a4ee57ff75cfa8fe4e8fb464c4af6ad30693f8223acbb2dc3caaa811dbb",
    ("thor", 12345, 20000): "d07d581a446c266ad23fcefaf551edc19c583782f4f53729c75e145fe591f59f",
    ("thor", 12345, 40000): "b6c471408f35fe566d8657866872f78d7f4c66fb84334e17d2e08856a003dd37",
    ("pero", None, 1): "6721baace57cd5d0d0c873dfd7a4fc1f322755e1b42b9219efccb43aa2fb160c",
    ("pero", None, 997): "7c69bdc43842e462d5f343361129644b8fec1056c721d063354a9c26f52c5351",
    ("pero", None, 5000): "061502722167d60c659c1043889921fdfbc10e8a2858b627be91a0c0dd78c135",
    ("pero", None, 20000): "79a95458450d7bb491132dac407f854ed61495711519b9d3596b2f77f6ef9df7",
    ("pero", None, 40000): "0dd606a5d8de688b9d8c34accbd76fea4fa3944cfcbacc333df04429807eb804",
    ("pero", 7, 1): "6721baace57cd5d0d0c873dfd7a4fc1f322755e1b42b9219efccb43aa2fb160c",
    ("pero", 7, 997): "98dc4d778d0b66cfe40c1c987266bb47a8c12245e248cc64055631cb9055eb40",
    ("pero", 7, 5000): "215499915b01665f64e34a7622829615883aba3f8c210329c4916f381f438e3c",
    ("pero", 7, 20000): "9b36314e438eb13ef444b5ffdfa8e507c560871cf47221760eb5f2cd5c11b06c",
    ("pero", 7, 40000): "a9ff8756fc020ada00b16295c1daf1c7c20e2ae33aceeb076f11ef81dc940208",
    ("pero", 12345, 1): "6721baace57cd5d0d0c873dfd7a4fc1f322755e1b42b9219efccb43aa2fb160c",
    ("pero", 12345, 997): "54142da687cfa2a54ddf19ec19c938afd20b1b40aa02572cc5922ca90585cded",
    ("pero", 12345, 5000): "f0835c1292605bba3ac5976cf7133038a48e7b5627e9ce9ac6c8f023a84922fe",
    ("pero", 12345, 20000): "f3e6947d55e02f1b3a16c2e9d582302002b5c66cce9756881d2893dbd3dda1dc",
    ("pero", 12345, 40000): "4e72f7009883d5e74c0d5f363db0c4f5de3bbf665ef1219118f538700515b749",
}


def _kwargs(seed):
    return {} if seed is None else {"seed": seed}


@pytest.mark.parametrize(("workload", "seed", "length"), sorted(GOLDEN, key=str))
def test_every_generator_output_hashes_to_the_golden_digest(
    workload, seed, length, tmp_path
):
    expected = GOLDEN[workload, seed, length]

    trace = make_trace(workload, length=length, **_kwargs(seed))
    assert len(trace) == length
    assert fingerprint_trace(trace) == expected
    assert fingerprint_trace(trace.columnar()) == expected

    stream = stream_trace(workload, length=length, **_kwargs(seed))
    hasher = TraceHasher()
    count = 0
    for batch in stream.iter_columns():
        count += len(batch)
        hasher.update_columns(
            batch.cpu, batch.pid, batch.type_code, batch.address, batch.flags
        )
    assert count == length
    assert hasher.hexdigest() == expected

    meta = write_stream(
        stream_trace(workload, length=length, **_kwargs(seed)),
        tmp_path / "trace.ctrc",
        chunk_records=4096,
    )
    assert meta["records"] == length
    assert meta["fingerprint"] == expected
